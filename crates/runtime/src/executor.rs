//! The round-synchronous parallel executor.

use std::fmt;
use std::time::Instant;

use mfd_congest::{CongestError, Message, MeterParts, RoundMeter};
use mfd_graph::Graph;
use mfd_trace::{EngineKind, Event, NullSink, RunObserver};
use rayon::prelude::*;

use crate::driver::{self, VertexRound};
use crate::profile::{
    NoProfiler, Profiler, RoundSample, PHASE_COMMIT, PHASE_DELIVER, PHASE_SCAN, PHASE_STEP,
};
use crate::program::{Envelope, NodeCtx, NodeProgram, SendBuf};

/// The executor's complete loop state at a round boundary, as plain data.
///
/// Captured by [`Executor::run_checkpointed`] after round `round` seals and
/// consumed by [`Executor::resume`], whose continued run is bit-identical to
/// the uninterrupted one: the loop state is exactly `(states, halted, inbox,
/// meter, round)` — per-vertex RNG streams are stateless (re-derived from
/// `(seed, vertex, round)`), so there is no RNG position to store.
#[derive(Debug, Clone)]
pub struct ExecCheckpoint<S, M> {
    /// Rounds sealed when the checkpoint was taken (`meter.rounds`); the
    /// next executed round is `round + 1`.
    pub round: u64,
    /// Every vertex's state after round `round`.
    pub states: Vec<S>,
    /// Every vertex's halted flag after round `round`.
    pub halted: Vec<bool>,
    /// The mail readable in round `round + 1`, per destination vertex, in
    /// the committed (vertex-order-deterministic) delivery order.
    pub inbox: Vec<Vec<Envelope<M>>>,
    /// The meter's accumulator state, including open phases.
    pub meter: MeterParts,
}

/// Configuration for an [`Executor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads for the per-round vertex sweep (0 = all available).
    pub threads: usize,
    /// Upper bound on executed rounds before the run is aborted with
    /// [`RuntimeError::RoundLimit`] (guards against non-halting programs).
    pub max_rounds: u64,
    /// Per-edge, per-direction bandwidth in 64-bit words per round.
    pub capacity_words: usize,
    /// Seed for the deterministic per-vertex RNG streams.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threads: 0,
            max_rounds: 1_000_000,
            capacity_words: RoundMeter::DEFAULT_CAPACITY_WORDS,
            seed: 0x6d66642d72740a,
        }
    }
}

impl ExecutorConfig {
    /// Config with an explicit thread count and defaults elsewhere.
    pub fn with_threads(threads: usize) -> Self {
        ExecutorConfig {
            threads,
            ..Self::default()
        }
    }
}

/// Errors aborting an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A vertex violated the CONGEST model (non-edge send or bandwidth
    /// overcommitment); carries the meter's verdict.
    Model(CongestError),
    /// The program did not halt within the configured round budget.
    RoundLimit {
        /// The configured bound that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Model(e) => write!(f, "CONGEST model violation: {e}"),
            RuntimeError::RoundLimit { limit } => {
                write!(f, "program did not halt within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result of a completed execution.
#[derive(Debug)]
pub struct Execution<S> {
    /// Final state of every vertex.
    pub states: Vec<S>,
    /// The meter that validated and accounted every executed round.
    pub meter: RoundMeter,
    /// Rounds executed (equals `meter.rounds()`).
    pub rounds: u64,
    /// Messages delivered (equals `meter.messages()`).
    pub messages: u64,
}

/// A deterministic, data-parallel, round-synchronous CONGEST engine.
///
/// Each round, every *active* vertex is run (in parallel across a
/// configurable number of threads), its sends are collected into
/// double-buffered mailboxes, and the complete round is submitted to a
/// [`RoundMeter`], which rejects any round the CONGEST model would not allow.
/// Executions are bit-for-bit deterministic in the thread count: vertex
/// results are committed in vertex order and per-vertex RNG streams are seeded
/// from `(seed, vertex, round)`, never from scheduling.
///
/// Scheduling is frontier-aware: a non-halted vertex whose inbox is empty and
/// whose program declares it [`NodeProgram::quiescent`] is skipped, so
/// wave-style programs pay per round for their frontier rather than for the
/// whole graph. If a round's active set is empty the system is at a fixpoint
/// (nothing in flight, no state can change) and the run ends there.
#[derive(Debug, Default)]
pub struct Executor {
    config: ExecutorConfig,
    pool: Option<rayon::ThreadPool>,
}

impl Executor {
    /// Creates an executor from a configuration.
    pub fn new(config: ExecutorConfig) -> Self {
        let pool = (config.threads > 0).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(config.threads)
                .build()
                .expect("thread pool construction cannot fail")
        });
        Executor { config, pool }
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs `program` on every vertex of `g` until all vertices halt.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if any round violates the CONGEST model, and
    /// [`RuntimeError::RoundLimit`] if the program exceeds the round budget.
    pub fn run<P: NodeProgram>(
        &self,
        g: &Graph,
        program: &P,
    ) -> Result<Execution<P::State>, RuntimeError> {
        self.run_traced(g, program, &mut NullSink)
    }

    /// [`Executor::run`] with an observer receiving round/vertex events and
    /// per-round state digests (see `mfd-trace`).
    ///
    /// With [`NullSink`] this *is* [`Executor::run`]: every hook site is
    /// guarded by the monomorphized [`RunObserver::ENABLED`] constant, so the
    /// disabled instantiation compiles to the untraced loop. Hooks fire only
    /// at sequential commit points (never inside the parallel sweep), so the
    /// event stream is deterministic in the thread count, like the run
    /// itself. Per-vertex digests are *computed* inside the sweep — via the
    /// pure [`mfd_trace::RunObserver::state_digest`] function, each vertex's
    /// digest riding in its own result slot — and delivered to the sink
    /// sequentially in vertex order: same stream, off the serialized path.
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    pub fn run_traced<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
    ) -> Result<Execution<P::State>, RuntimeError> {
        self.run_profiled(g, program, observer, &mut NoProfiler)
    }

    /// [`Executor::run_traced`] with a wall-clock [`crate::profile::Profiler`]
    /// attached (see [`crate::ShardedExecutor::run_profiled`] for the full
    /// contract — this engine reports itself as a single shard, with the
    /// `route` and `exchange` phases identically zero). With [`NoProfiler`]
    /// this *is* [`Executor::run_traced`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    pub fn run_profiled<P, O, PR>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
        profiler: &mut PR,
    ) -> Result<Execution<P::State>, RuntimeError>
    where
        P: NodeProgram,
        O: RunObserver<P::State>,
        PR: Profiler,
    {
        self.install(|| {
            let run_start = Instant::now();
            let mut engine =
                ExecEngine::fresh(&self.config, g, program, observer, profiler, run_start);
            engine.drive()?;
            engine.seal_profile();
            Ok(engine.finish())
        })
    }

    /// Continues a run from a checkpoint captured by
    /// [`Executor::run_checkpointed`] until all vertices halt.
    ///
    /// The continued run is **bit-identical** to the uninterrupted one — the
    /// checkpoint is the executor's complete loop state and the per-vertex
    /// RNG streams are stateless — provided `g`, `program` and this
    /// executor's configuration match the run that captured the checkpoint.
    /// The round budget keeps counting total rounds, not rounds since the
    /// resume.
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    ///
    /// # Panics
    ///
    /// If the checkpoint's vertex count does not match `g`.
    pub fn resume<P: NodeProgram>(
        &self,
        g: &Graph,
        program: &P,
        checkpoint: ExecCheckpoint<P::State, P::Msg>,
    ) -> Result<Execution<P::State>, RuntimeError> {
        self.resume_traced(g, program, checkpoint, &mut NullSink)
    }

    /// [`Executor::resume`] with an observer. Round 0 is *not* re-sealed and
    /// already-executed rounds are not replayed: the observer sees exactly
    /// the events of rounds `checkpoint.round + 1..`. To continue a digest
    /// chain across the resume, restore the sink's state alongside (see
    /// `mfd_trace::DigestSink::export`).
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    ///
    /// # Panics
    ///
    /// If the checkpoint's vertex count does not match `g`.
    pub fn resume_traced<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        checkpoint: ExecCheckpoint<P::State, P::Msg>,
        observer: &mut O,
    ) -> Result<Execution<P::State>, RuntimeError> {
        self.install(|| {
            let mut noprof = NoProfiler;
            let mut engine =
                ExecEngine::restored(&self.config, g, program, observer, checkpoint, &mut noprof);
            engine.drive()?;
            Ok(engine.finish())
        })
    }

    /// [`Executor::run_traced`] that additionally hands a full-state
    /// [`ExecCheckpoint`] to `capture` every `every` sealed rounds (at rounds
    /// `every, 2·every, …`; `every` is clamped to at least 1). The observer
    /// is passed to `capture` by shared reference at the exact capture
    /// instant, so a journal can stamp each checkpoint with the digest head
    /// at its round.
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    pub fn run_checkpointed<P, O, C>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
        every: u64,
        capture: &mut C,
    ) -> Result<Execution<P::State>, RuntimeError>
    where
        P: NodeProgram,
        P::State: Clone,
        O: RunObserver<P::State>,
        C: FnMut(ExecCheckpoint<P::State, P::Msg>, &O),
    {
        let every = every.max(1);
        self.install(|| {
            let mut noprof = NoProfiler;
            let mut engine = ExecEngine::fresh(
                &self.config,
                g,
                program,
                observer,
                &mut noprof,
                Instant::now(),
            );
            while let Stepped::Sealed(round) = engine.step()? {
                if round % every == 0 {
                    capture(engine.checkpoint(), engine.observer());
                }
            }
            Ok(engine.finish())
        })
    }

    /// [`Executor::resume_traced`] with checkpoint capture — continues from
    /// `checkpoint` and hands out fresh checkpoints on the same
    /// round-multiple cadence as [`Executor::run_checkpointed`]. This is the
    /// time-travel primitive: restore the nearest journaled checkpoint below
    /// a target round, then step forward capturing every round.
    ///
    /// # Errors
    ///
    /// Exactly as [`Executor::run`].
    ///
    /// # Panics
    ///
    /// If the checkpoint's vertex count does not match `g`.
    pub fn resume_checkpointed<P, O, C>(
        &self,
        g: &Graph,
        program: &P,
        checkpoint: ExecCheckpoint<P::State, P::Msg>,
        observer: &mut O,
        every: u64,
        capture: &mut C,
    ) -> Result<Execution<P::State>, RuntimeError>
    where
        P: NodeProgram,
        P::State: Clone,
        O: RunObserver<P::State>,
        C: FnMut(ExecCheckpoint<P::State, P::Msg>, &O),
    {
        let every = every.max(1);
        self.install(|| {
            let mut noprof = NoProfiler;
            let mut engine =
                ExecEngine::restored(&self.config, g, program, observer, checkpoint, &mut noprof);
            while let Stepped::Sealed(round) = engine.step()? {
                if round % every == 0 {
                    capture(engine.checkpoint(), engine.observer());
                }
            }
            Ok(engine.finish())
        })
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// One [`ExecEngine::step`] outcome.
enum Stepped {
    /// A round executed and sealed (its number).
    Sealed(u64),
    /// All vertices halted or the active set was empty (fixpoint): the run
    /// is over, nothing executed.
    Done,
}

/// The executor's loop state, factored out of the run methods so a run can
/// be started fresh, restored from an [`ExecCheckpoint`], and stepped one
/// round at a time (the checkpoint capture points).
struct ExecEngine<'a, P: NodeProgram, O, PR> {
    g: &'a Graph,
    program: &'a P,
    observer: &'a mut O,
    profiler: &'a mut PR,
    /// Wall-clock origin of the run; all profile offsets are relative to it.
    run_start: Instant,
    /// Pooled per-round profile sample (only populated when `PR::ENABLED`).
    sample: RoundSample,
    n: usize,
    seed: u64,
    max_rounds: u64,
    sorted_adj: Vec<Vec<usize>>,
    states: Vec<P::State>,
    halted: Vec<bool>,
    // Double-buffered mailboxes: `inbox` is read this round, `next_inbox`
    // collects deliveries for the next one.
    inbox: Vec<Vec<Envelope<P::Msg>>>,
    next_inbox: Vec<Vec<Envelope<P::Msg>>>,
    meter: RoundMeter,
    round: u64,
}

impl<'a, P, O, PR> ExecEngine<'a, P, O, PR>
where
    P: NodeProgram,
    O: RunObserver<P::State>,
    PR: Profiler,
{
    fn budget(config: &ExecutorConfig, program: &P) -> u64 {
        config
            .max_rounds
            .min(program.round_budget_hint().unwrap_or(u64::MAX))
    }

    /// Initializes a run at round 0 and seals the initial configuration.
    fn fresh(
        config: &ExecutorConfig,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        profiler: &'a mut PR,
        run_start: Instant,
    ) -> Self {
        let n = g.n();
        let seed = config.seed;
        let sorted_adj = driver::sorted_adjacency(g);
        let states: Vec<P::State> = (0..n)
            .into_par_iter()
            .map(|v| program.init(&NodeCtx::new(v, n, 0, &sorted_adj[v], seed)))
            .collect();
        let halted: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|v| program.halted(&NodeCtx::new(v, n, 0, &sorted_adj[v], seed), &states[v]))
            .collect();

        // Round 0 is the initial configuration: digest every vertex once so
        // two runs that differ already at init diverge at round 0, not 1.
        // Hashing runs in the parallel pass; delivery stays sequential and
        // in vertex order, so the observed stream is unchanged.
        if O::ENABLED && observer.wants_digests() {
            let digests: Vec<u64> = states.par_iter().map(|s| O::state_digest(s)).collect();
            for (v, digest) in digests.into_iter().enumerate() {
                observer.vertex_digest(EngineKind::Executor, 0, v, digest);
            }
        }
        if O::ENABLED {
            observer.round_sealed(EngineKind::Executor, 0);
        }

        if PR::ENABLED {
            // This engine is one "shard"; the worker count is the installed
            // pool's size (or all available threads without a pool).
            let threads = rayon::current_num_threads().max(1);
            profiler.begin(1, threads, run_start.elapsed().as_nanos() as u64);
        }

        ExecEngine {
            g,
            program,
            observer,
            profiler,
            run_start,
            sample: RoundSample::default(),
            n,
            seed,
            max_rounds: Self::budget(config, program),
            sorted_adj,
            states,
            halted,
            inbox: (0..n).map(|_| Vec::new()).collect(),
            next_inbox: (0..n).map(|_| Vec::new()).collect(),
            meter: RoundMeter::with_capacity(config.capacity_words),
            round: 0,
        }
    }

    /// Rebuilds the loop state from a checkpoint: no `init`, no round-0
    /// seal — the next executed round is `checkpoint.round + 1`.
    fn restored(
        config: &ExecutorConfig,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        checkpoint: ExecCheckpoint<P::State, P::Msg>,
        profiler: &'a mut PR,
    ) -> Self {
        let n = g.n();
        assert_eq!(
            checkpoint.states.len(),
            n,
            "checkpoint was captured on a graph with {} vertices, not {n}",
            checkpoint.states.len()
        );
        ExecEngine {
            g,
            program,
            observer,
            profiler,
            run_start: Instant::now(),
            sample: RoundSample::default(),
            n,
            seed: config.seed,
            max_rounds: Self::budget(config, program),
            sorted_adj: driver::sorted_adjacency(g),
            states: checkpoint.states,
            halted: checkpoint.halted,
            inbox: checkpoint.inbox,
            next_inbox: (0..n).map(|_| Vec::new()).collect(),
            meter: RoundMeter::from_parts(checkpoint.meter),
            round: checkpoint.round,
        }
    }

    /// Captures the complete loop state (valid only at a round boundary,
    /// which is the only time the caller can observe the engine).
    fn checkpoint(&self) -> ExecCheckpoint<P::State, P::Msg>
    where
        P::State: Clone,
    {
        ExecCheckpoint {
            round: self.round,
            states: self.states.clone(),
            halted: self.halted.clone(),
            inbox: self.inbox.clone(),
            meter: self.meter.to_parts(),
        }
    }

    fn observer(&self) -> &O {
        &*self.observer
    }

    /// Runs rounds until the program is done.
    fn drive(&mut self) -> Result<(), RuntimeError> {
        while let Stepped::Sealed(_) = self.step()? {}
        Ok(())
    }

    /// Wall-clock offset from the run's start, in nanoseconds.
    fn offset_ns(&self) -> u64 {
        self.run_start.elapsed().as_nanos() as u64
    }

    /// Reports the total wall time to the profiler on normal completion.
    fn seal_profile(&mut self) {
        if PR::ENABLED {
            let total = self.offset_ns();
            self.profiler.finish(total);
        }
    }

    /// Executes one full round (active-set scan, parallel sweep, sequential
    /// commit, meter validation, seal, mailbox swap) or reports the run
    /// finished.
    fn step(&mut self) -> Result<Stepped, RuntimeError> {
        if self.halted.iter().all(|&h| h) {
            return Ok(Stepped::Done);
        }
        let round = self.round + 1;
        let (n, seed) = (self.n, self.seed);
        let program = self.program;
        // The round's active set: every non-halted vertex with something
        // to read, or one whose program wants the round regardless
        // (non-quiescent). An empty active set is a fixpoint — nothing in
        // flight, no state can ever change — and ends the run *before*
        // the round-budget check: a run whose work fit the budget must
        // not fail merely because detecting the fixpoint takes one more
        // loop iteration.
        if PR::ENABLED {
            self.sample.reset(round);
            let now = self.offset_ns();
            self.sample.start_ns = now;
            self.sample.phase_start_ns[PHASE_SCAN] = now;
        }
        let halted = &self.halted;
        let inbox_ref = &self.inbox;
        let states_ref = &self.states;
        let adj = &self.sorted_adj;
        let active: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|v| {
                !halted[v]
                    && (!inbox_ref[v].is_empty()
                        || !program
                            .quiescent(&NodeCtx::new(v, n, round, &adj[v], seed), &states_ref[v]))
            })
            .collect();
        if PR::ENABLED {
            let scan_ns = self.offset_ns() - self.sample.phase_start_ns[PHASE_SCAN];
            self.sample.phase_wall_ns[PHASE_SCAN] = scan_ns;
            self.sample.shard_scan_ns.push(scan_ns);
            self.sample
                .frontier
                .push(active.iter().filter(|&&a| a).count());
        }
        if !active.iter().any(|&a| a) {
            return Ok(Stepped::Done);
        }
        self.round = round;
        if round > self.max_rounds {
            return Err(RuntimeError::RoundLimit {
                limit: self.max_rounds,
            });
        }
        if O::ENABLED {
            self.observer.event(&Event::RoundOpen {
                engine: EngineKind::Executor,
                round,
                active: active.iter().filter(|&&a| a).count(),
            });
        }
        // Parallel vertex sweep over the active set. Skipped vertices
        // cost one quiescence check instead of an outbox and a program
        // call.
        if PR::ENABLED {
            self.sample.phase_start_ns[PHASE_STEP] = self.offset_ns();
        }
        let active_ref = &active;
        // Per-vertex digests are computed inside the sweep (each vertex's
        // worker hashes the state it just committed) and ride in the
        // vertex's own result slot; the sequential commit loop below only
        // *delivers* them, in vertex order — same values, same order as
        // hashing at the sequential point, but off the serialized path.
        let want_digests = O::ENABLED && self.observer.wants_digests();
        let outs: Vec<_> = self
            .states
            .par_iter_mut()
            .enumerate()
            .map(|(v, state)| {
                if !active_ref[v] {
                    return None;
                }
                let ctx = NodeCtx::new(v, n, round, &adj[v], seed);
                // Only the messages are kept: one result slot per vertex is
                // written every round, so its size is paid n times over.
                let VertexRound {
                    sends,
                    halted,
                    violation,
                } = driver::step_vertex(program, &ctx, state, &inbox_ref[v], SendBuf::new());
                let digest = if want_digests {
                    O::state_digest(state)
                } else {
                    0
                };
                Some((sends.msgs, halted, violation, digest))
            })
            .collect();
        if PR::ENABLED {
            let now = self.offset_ns();
            let step_ns = now - self.sample.phase_start_ns[PHASE_STEP];
            self.sample.phase_wall_ns[PHASE_STEP] = step_ns;
            self.sample.shard_step_ns.push(step_ns);
            self.sample.phase_start_ns[PHASE_COMMIT] = now;
        }

        // Commit results sequentially in vertex order: deterministic in
        // the thread count by construction. Inboxes stay readable until
        // after the commit loop (the observer reports their sizes).
        let mut round_msgs: Vec<Message> = Vec::new();
        let mut send_violation: Option<CongestError> = None;
        for (v, out) in outs.into_iter().enumerate() {
            let Some((sends, now_halted, violation, digest)) = out else {
                continue;
            };
            if let (None, Some(err)) = (&send_violation, violation) {
                send_violation = Some(err);
            }
            self.halted[v] = now_halted;
            if O::ENABLED {
                self.observer.event(&Event::VertexStep {
                    engine: EngineKind::Executor,
                    round,
                    vertex: v,
                    inbox: self.inbox[v].len(),
                    sent: sends.len(),
                });
                if want_digests {
                    self.observer
                        .vertex_digest(EngineKind::Executor, round, v, digest);
                }
            }
            for (dst, msg, words) in sends {
                round_msgs.push(Message { src: v, dst, words });
                self.next_inbox[dst].push(Envelope { src: v, msg });
            }
        }
        if let Some(err) = send_violation {
            return Err(RuntimeError::Model(err));
        }
        self.meter
            .round(self.g, &round_msgs)
            .map_err(RuntimeError::Model)?;
        if O::ENABLED {
            self.observer.event(&Event::RoundClose {
                engine: EngineKind::Executor,
                round,
                messages: self.meter.messages(),
            });
            if PR::ENABLED {
                let seal_start = Instant::now();
                self.observer.round_sealed(EngineKind::Executor, round);
                self.sample.seal_ns = seal_start.elapsed().as_nanos() as u64;
            } else {
                self.observer.round_sealed(EngineKind::Executor, round);
            }
        }
        if PR::ENABLED {
            let now = self.offset_ns();
            let commit_ns = now - self.sample.phase_start_ns[PHASE_COMMIT];
            self.sample.phase_wall_ns[PHASE_COMMIT] = commit_ns;
            self.sample.phase_start_ns[PHASE_DELIVER] = now;
            // Structural single-shard series: this engine has no router, so
            // the 1×1 traffic matrix, the sent count, and the delivered
            // count are all the round's message count; nothing is ever
            // staged in route buckets.
            let msgs = round_msgs.len();
            self.sample.sent.push(msgs as u64);
            self.sample.delivered.push(msgs);
            self.sample.route_slots.push(0);
            self.sample.traffic.push(msgs as u64);
        }
        for mailbox in &mut self.inbox {
            mailbox.clear();
        }
        std::mem::swap(&mut self.inbox, &mut self.next_inbox);
        if PR::ENABLED {
            let now = self.offset_ns();
            let deliver_ns = now - self.sample.phase_start_ns[PHASE_DELIVER];
            self.sample.phase_wall_ns[PHASE_DELIVER] = deliver_ns;
            self.sample.shard_deliver_ns.push(deliver_ns);
            self.sample.wall_ns = now - self.sample.start_ns;
            self.profiler.record_round(&self.sample);
        }
        Ok(Stepped::Sealed(round))
    }

    fn finish(self) -> Execution<P::State> {
        Execution {
            rounds: self.meter.rounds(),
            messages: self.meter.messages(),
            states: self.states,
            meter: self.meter,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::{Outbox, RuntimeMessage};
    use mfd_graph::generators;

    /// Every vertex floods a token once; counts distinct tokens seen.
    struct FloodOnce;

    struct FloodState {
        sent: bool,
        seen: u64,
    }

    impl NodeProgram for FloodOnce {
        type State = FloodState;
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) -> FloodState {
            FloodState {
                sent: false,
                seen: 0,
            }
        }

        fn round(
            &self,
            _ctx: &NodeCtx,
            state: &mut FloodState,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            state.seen += inbox.len() as u64;
            if !state.sent {
                out.broadcast(1);
                state.sent = true;
            }
        }

        fn halted(&self, ctx: &NodeCtx, state: &FloodState) -> bool {
            // One send round + one receive round.
            state.sent && ctx.round >= 2
        }
    }

    #[test]
    fn flood_once_counts_degrees() {
        let g = generators::cycle(8);
        let exec = Executor::new(ExecutorConfig::default());
        let run = exec.run(&g, &FloodOnce).unwrap();
        assert_eq!(run.rounds, 2);
        assert_eq!(run.messages, 2 * g.m() as u64);
        assert!(run.states.iter().all(|s| s.seen == 2));
        assert_eq!(run.meter.max_words_on_edge(), 1);
    }

    /// A program that illegally sends to a non-neighbor.
    struct NonEdgeSender;

    impl NodeProgram for NonEdgeSender {
        type State = ();
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) {}

        fn round(
            &self,
            ctx: &NodeCtx,
            _state: &mut (),
            _inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            if ctx.id == 0 {
                out.send(ctx.n - 1, 9);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
            ctx.round >= 1
        }
    }

    #[test]
    fn non_edge_send_is_rejected() {
        let g = generators::path(5);
        let exec = Executor::new(ExecutorConfig::default());
        let err = exec.run(&g, &NonEdgeSender).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Model(CongestError::NotAnEdge { src: 0, dst: 4 })
        );
    }

    /// A program that overloads one edge with two one-word messages.
    struct DoubleSender;

    impl NodeProgram for DoubleSender {
        type State = ();
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) {}

        fn round(
            &self,
            ctx: &NodeCtx,
            _state: &mut (),
            _inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            if ctx.id == 0 {
                out.send(1, 1);
                out.send(1, 2);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
            ctx.round >= 1
        }
    }

    #[test]
    fn bandwidth_overcommitment_is_rejected() {
        let g = generators::path(3);
        let exec = Executor::new(ExecutorConfig::default());
        let err = exec.run(&g, &DoubleSender).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Model(CongestError::BandwidthExceeded { .. })
        ));
        // With two words of capacity the same program is legal.
        let exec = Executor::new(ExecutorConfig {
            capacity_words: 2,
            ..ExecutorConfig::default()
        });
        exec.run(&g, &DoubleSender).unwrap();
    }

    /// A program that never halts.
    struct Spinner;

    impl NodeProgram for Spinner {
        type State = ();
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) {}

        fn round(
            &self,
            _ctx: &NodeCtx,
            _state: &mut (),
            _inbox: &[Envelope<u64>],
            _out: &mut Outbox<'_, u64>,
        ) {
        }

        fn halted(&self, _ctx: &NodeCtx, _state: &()) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_guards_non_halting_programs() {
        let g = generators::path(3);
        let exec = Executor::new(ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        });
        assert_eq!(
            exec.run(&g, &Spinner).unwrap_err(),
            RuntimeError::RoundLimit { limit: 10 }
        );
    }

    #[test]
    fn zero_word_messages_are_free() {
        struct NullFlood;
        impl NodeProgram for NullFlood {
            type State = ();
            type Msg = ();
            fn init(&self, _ctx: &NodeCtx) {}
            fn round(
                &self,
                _ctx: &NodeCtx,
                _state: &mut (),
                _inbox: &[Envelope<()>],
                out: &mut Outbox<'_, ()>,
            ) {
                out.broadcast(());
            }
            fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
                ctx.round >= 3
            }
        }
        assert_eq!(().words(), 0);
        let g = generators::star(6);
        let exec = Executor::new(ExecutorConfig::default());
        let run = exec.run(&g, &NullFlood).unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(run.meter.max_words_on_edge(), 0);
    }

    #[test]
    fn empty_graph_finishes_immediately() {
        let g = mfd_graph::Graph::new(0);
        let exec = Executor::new(ExecutorConfig::default());
        let run = exec.run(&g, &FloodOnce).unwrap();
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::triangulated_grid(12, 12);
        let run1 = Executor::new(ExecutorConfig::with_threads(1))
            .run(&g, &FloodOnce)
            .unwrap();
        let run8 = Executor::new(ExecutorConfig::with_threads(8))
            .run(&g, &FloodOnce)
            .unwrap();
        assert_eq!(run1.rounds, run8.rounds);
        assert_eq!(run1.messages, run8.messages);
        let seen1: Vec<u64> = run1.states.iter().map(|s| s.seen).collect();
        let seen8: Vec<u64> = run8.states.iter().map(|s| s.seen).collect();
        assert_eq!(seen1, seen8);
    }

    /// A wave: vertex 0 floods a token, everyone else waits for it, forwards
    /// it once and halts. With `frontier` set, waiting vertices declare
    /// themselves quiescent so the executor skips them.
    pub(crate) struct Wave {
        pub(crate) frontier: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub(crate) struct WaveState {
        pub(crate) hop: Option<u64>,
        announced: bool,
    }

    impl NodeProgram for Wave {
        type State = WaveState;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx) -> WaveState {
            WaveState {
                hop: (ctx.id == 0).then_some(0),
                announced: false,
            }
        }

        fn round(
            &self,
            _ctx: &NodeCtx,
            state: &mut WaveState,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            if state.hop.is_none() {
                if let Some(first) = inbox.first() {
                    state.hop = Some(first.msg + 1);
                }
            }
            if let Some(h) = state.hop {
                if !state.announced {
                    out.broadcast(h);
                    state.announced = true;
                }
            }
        }

        fn halted(&self, _ctx: &NodeCtx, state: &WaveState) -> bool {
            state.announced
        }

        fn quiescent(&self, _ctx: &NodeCtx, state: &WaveState) -> bool {
            self.frontier && state.hop.is_none()
        }
    }

    #[test]
    fn frontier_scheduling_preserves_outputs_and_accounting() {
        let g = generators::triangulated_grid(10, 10);
        let exec = Executor::new(ExecutorConfig::default());
        let dense = exec.run(&g, &Wave { frontier: false }).unwrap();
        let sparse = exec.run(&g, &Wave { frontier: true }).unwrap();
        assert_eq!(dense.states, sparse.states);
        assert_eq!(dense.rounds, sparse.rounds);
        assert_eq!(dense.messages, sparse.messages);
    }

    #[test]
    fn all_quiescent_fixpoint_ends_the_run() {
        // Two components; the wave never reaches the second one. Without the
        // fixpoint break the unreached vertices (never halting, never
        // receiving) would spin until the round limit.
        let g = generators::path(4).disjoint_union(&generators::path(3));
        let exec = Executor::new(ExecutorConfig {
            max_rounds: 50,
            ..ExecutorConfig::default()
        });
        let run = exec.run(&g, &Wave { frontier: true }).unwrap();
        assert!(run.states[..4].iter().all(|s| s.hop.is_some()));
        assert!(run.states[4..].iter().all(|s| s.hop.is_none()));
        // The wave crosses the path in 4 rounds; the fixpoint round is not
        // charged.
        assert_eq!(run.rounds, 4);
    }

    #[test]
    fn fixpoint_within_exact_round_budget_is_not_a_round_limit_error() {
        // All state changes finish in exactly 4 charged rounds; detecting
        // the fixpoint takes one more loop iteration, which must not trip
        // the budget.
        let g = generators::path(4).disjoint_union(&generators::path(3));
        let exec = Executor::new(ExecutorConfig {
            max_rounds: 4,
            ..ExecutorConfig::default()
        });
        let run = exec.run(&g, &Wave { frontier: true }).unwrap();
        assert_eq!(run.rounds, 4);
    }

    /// Broadcasts a folded accumulator (Clone state, so checkpointable): the
    /// state evolution depends on inbox order, per-vertex RNG, and round
    /// count — a determinism probe, shared with the sharded engine's tests.
    pub(crate) struct Mixer {
        pub(crate) rounds: u64,
    }

    impl NodeProgram for Mixer {
        type State = u64;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx) -> u64 {
            ctx.id as u64
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut u64,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            for env in inbox {
                *state = state.wrapping_mul(31).wrapping_add(env.msg);
            }
            *state = state.wrapping_add(ctx.rng().next_u64());
            if ctx.round < self.rounds {
                out.broadcast(*state);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &u64) -> bool {
            ctx.round >= self.rounds
        }
    }

    #[test]
    fn resume_from_any_checkpoint_matches_the_uninterrupted_run() {
        let g = generators::triangulated_grid(6, 6);
        let exec = Executor::new(ExecutorConfig::default());
        let program = Mixer { rounds: 9 };
        let full = exec.run(&g, &program).unwrap();

        let mut checkpoints = Vec::new();
        let run = exec
            .run_checkpointed(&g, &program, &mut NullSink, 2, &mut |cp, _| {
                checkpoints.push(cp)
            })
            .unwrap();
        assert_eq!(run.states, full.states);
        assert_eq!(run.rounds, full.rounds);
        // Captures at rounds 2, 4, 6, 8 (the run ends in round 9).
        assert_eq!(
            checkpoints.iter().map(|c| c.round).collect::<Vec<_>>(),
            vec![2, 4, 6, 8]
        );

        for cp in checkpoints {
            let resumed = exec.resume(&g, &program, cp).unwrap();
            assert_eq!(resumed.states, full.states);
            assert_eq!(resumed.rounds, full.rounds);
            assert_eq!(resumed.messages, full.messages);
            assert_eq!(
                resumed.meter.max_words_on_edge(),
                full.meter.max_words_on_edge()
            );
        }
    }

    #[test]
    fn resumed_round_budget_counts_total_rounds() {
        let g = generators::cycle(6);
        let program = Mixer { rounds: 20 };
        let exec = Executor::new(ExecutorConfig::default());
        let mut checkpoints = Vec::new();
        exec.run_checkpointed(&g, &program, &mut NullSink, 5, &mut |cp, _| {
            checkpoints.push(cp)
        })
        .unwrap();

        // A budget the full run exceeds must still fail after a resume from
        // round 5 — the budget meters total rounds, not rounds since resume.
        let tight = Executor::new(ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        });
        assert_eq!(
            tight
                .resume(&g, &program, checkpoints[0].clone())
                .unwrap_err(),
            RuntimeError::RoundLimit { limit: 10 }
        );
    }

    #[test]
    fn per_vertex_rng_is_deterministic() {
        let ctx = NodeCtx {
            id: 3,
            n: 10,
            round: 5,
            neighbors: &[],
            seed: 42,
        };
        let a = ctx.rng().next_u64();
        let b = ctx.rng().next_u64();
        assert_eq!(a, b);
        let other_round = NodeCtx { round: 6, ..ctx };
        assert_ne!(a, other_round.rng().next_u64());
    }
}
