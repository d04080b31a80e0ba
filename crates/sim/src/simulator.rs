//! The discrete-event engine and its α-synchronizer.
//!
//! # How the synchronizer works
//!
//! The simulated network is asynchronous: a message sent along an edge
//! arrives after a delay drawn from the run's [`LatencyModel`]. To execute an
//! unmodified round-synchronous [`NodeProgram`] on such a network the engine
//! wraps every vertex in an α-synchronizer (Awerbuch's simplest form,
//! specialized to reliable links):
//!
//! * When vertex `v` executes its local round `r` it sends **one packet to
//!   every neighbor**, tagged `r`, carrying the program's round-`r` messages
//!   for that edge (possibly none). A packet with no payload is a pure
//!   *ready pulse*; because links are reliable, the pulse doubles as the
//!   acknowledgement of everything sent earlier on the edge.
//! * Vertex `v` may execute round `r + 1` once it holds a tag-`r` packet from
//!   every live neighbor — at that point it provably has every round-`r`
//!   program message addressed to it, so the synchronous inbox contract is
//!   preserved under arbitrary delays. Local round counters of adjacent
//!   vertices therefore never drift by more than one.
//! * A halting vertex marks its final packet (and a vertex halted at
//!   initialization announces itself with a tag-0 pulse), so neighbors stop
//!   waiting for rounds it will never run.
//!
//! Events are packet arrivals in a calendar queue (R. Brown, CACM 1988): one
//! bucket per arrival tick, taken whole and processed in `seq` order — every
//! delay is at least one tick, so nothing sent during a tick lands in its
//! bucket. All arrivals at one tick are buffered before any vertex
//! executes, so results do not depend on how equal-time events are ordered —
//! [`TieBreak`] exists to let tests *prove* that. Latencies are pure
//! functions of `(seed, edge, round)`, making whole runs bit-for-bit
//! reproducible.
//!
//! # State layout
//!
//! The engine's state is its checkpoint: [`VertexCheckpoint`]s of sorted
//! vectors, the calendar's buckets of [`PacketCheckpoint`]s and a window of
//! per-round live counts from the frontier — no hash map anywhere. Capturing
//! clones them, buckets in delivery order; restoring checks and adopts them.

use std::collections::{BTreeMap, VecDeque};

use mfd_congest::{Message, MeterParts, RoundMeter};
use mfd_graph::Graph;
use mfd_runtime::driver::{self, VertexRound};
use mfd_runtime::{
    check_fits, Envelope, Execution, Executor, ExecutorConfig, NodeCtx, NodeProgram, RuntimeError,
    SendBuf, SessionEngine,
};
use mfd_trace::{EngineKind, Event, FateKind, NullSink, RunObserver};

use crate::faults::{FaultHook, FaultOutcome, FaultedRun, MessageFate, NoFaults};
use crate::latency::LatencyModel;
use crate::report::{SimExecution, SimStats};

/// Order of equal-time event processing — observable nowhere, by design.
///
/// The engine buffers every arrival of a tick before running any vertex, and
/// vertices executing at the same tick cannot affect each other (their sends
/// arrive at least one tick later), so both orders produce identical results.
/// Tests run both to certify that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Process equal-time events and ready vertices in insertion/index order.
    #[default]
    InsertionOrder,
    /// Process them in reversed order.
    ReverseInsertion,
}

/// Configuration of a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-edge message delay distribution.
    pub latency: LatencyModel,
    /// Seed for program randomness ([`NodeCtx::rng`]) *and* latency sampling
    /// (separated internally by stream salts). Matching an
    /// [`ExecutorConfig::seed`] hands programs identical randomness under
    /// both engines.
    pub seed: u64,
    /// Upper bound on any vertex's local round count before the run is
    /// aborted with [`RuntimeError::RoundLimit`].
    pub max_rounds: u64,
    /// Per-edge, per-direction bandwidth in 64-bit words per round.
    pub capacity_words: usize,
    /// Equal-time event ordering (see [`TieBreak`]).
    pub tie_break: TieBreak,
}

impl Default for SimConfig {
    fn default() -> Self {
        let exec = ExecutorConfig::default();
        SimConfig {
            latency: LatencyModel::Fixed(1),
            seed: exec.seed,
            max_rounds: exec.max_rounds,
            capacity_words: exec.capacity_words,
            tie_break: TieBreak::InsertionOrder,
        }
    }
}

impl SimConfig {
    /// A config sharing seed, round budget and bandwidth with `exec`, so a
    /// simulated run is directly comparable to a synchronous one.
    pub fn matching(exec: &ExecutorConfig, latency: LatencyModel) -> Self {
        SimConfig {
            latency,
            seed: exec.seed,
            max_rounds: exec.max_rounds,
            capacity_words: exec.capacity_words,
            tie_break: TieBreak::InsertionOrder,
        }
    }

    /// The same config with a different latency model.
    pub fn with_latency(self, latency: LatencyModel) -> Self {
        SimConfig { latency, ..self }
    }
}

/// One in-flight packet in a [`SimCheckpoint`], with its scheduled arrival.
#[derive(Debug, Clone)]
pub struct PacketCheckpoint<M> {
    /// Scheduled arrival tick.
    pub time: u64,
    /// The order of the packet among its tick's arrivals, as stored —
    /// already transformed per the run's [`TieBreak`], so a resume under the
    /// *same* tie-break replays the exact event order.
    pub seq_key: u64,
    /// Sending vertex.
    pub src: usize,
    /// Receiving vertex.
    pub dst: usize,
    /// The sender's local round when the packet was sent.
    pub tag: u64,
    /// Program messages for this edge: `(message, words, slip)`.
    pub payload: Vec<(M, usize, u64)>,
    /// Whether the sender halted after the tagged round.
    pub halt: bool,
    /// A failure-detector notification rather than a network packet.
    pub notice: bool,
}

/// One tag's pending buffer in a [`VertexCheckpoint`]: per-sender `(msg, idx)`
/// packets, senders sorted.
pub type PendingBucket<M> = Vec<(usize, Vec<(M, usize)>)>;

/// One slipped message in a [`VertexCheckpoint`], in the deterministic
/// `(src, tag, idx)` replay order, carrying its payload last.
pub type LateEntry<M> = (usize, u64, usize, M);

/// One vertex's synchronizer state — the form the engine holds it in, and
/// the form a [`SimCheckpoint`] carries.
///
/// Every map-shaped field is a vector sorted by its key, without repeats or
/// empty entries, so the same engine state always encodes to the same bytes
/// and a restored one is adopted as it is. The order is also the one the
/// engine consumes: pending senders flatten into the synchronous inbox in
/// increasing order, and late messages replay in `(src, tag, idx)` order.
/// `pending` holds at most two tags, `next_round - 1` and `next_round`:
/// adjacent vertices' local rounds never drift by more than one.
#[derive(Debug, Clone)]
pub struct VertexCheckpoint<M> {
    /// Halted normally.
    pub halted: bool,
    /// Crash-stopped by the fault schedule.
    pub crashed: bool,
    /// The next local round this vertex will execute.
    pub next_round: u64,
    /// Simulated time of the most recent execution.
    pub completion: u64,
    /// Buffered packets by tag, awaiting consumption at local round
    /// `tag + 1` (sorted by tag; per-tag senders sorted).
    pub pending: Vec<(u64, PendingBucket<M>)>,
    /// Messages the fault hook slipped, by the local round whose inbox they
    /// join after its regular messages (sorted by round; entries in the
    /// deterministic `(src, tag, idx)` replay order).
    pub late: Vec<(u64, Vec<LateEntry<M>>)>,
    /// Final tag per halted/crashed neighbor (sorted by neighbor).
    pub nbr_final_tag: Vec<(usize, u64)>,
}

/// The event engine's complete state between two timestamp batches, as plain
/// data.
///
/// Captured by [`SimSession::checkpoint`] and consumed by [`SimEngine`]'s
/// `open`: the continued run is bit-identical to the
/// uninterrupted one, provided graph, program, configuration (including
/// [`TieBreak`]) and fault hook match. Fault-model memo state needs no
/// capture — every fate is a pure function of `(seed, edge, round, index)`,
/// so a restored run re-derives the same fate sequence.
///
/// A checkpoint is decoded from bytes, so `restore` treats it as outside
/// input and answers [`RuntimeError::CheckpointMismatch`] instead of
/// panicking: per-vertex lists that are not `n` long or per-edge lists that
/// are not `m` long, a `round` past the round budget, a queued packet or a
/// buffered sender that is not on an edge of the graph, a queued packet
/// whose tag its live receiver never reads, a live vertex's next
/// round outside `round + 1 ..= round + pending_rounds.len() + 1`, vertex
/// lists out of [`VertexCheckpoint`]'s form (keys unsorted or repeated, an
/// empty pending bucket or late list, a pending tag outside the window), and
/// bookkeeping (`in_flight`, `cur_in_flight`, `live`, `frontier`, and
/// `round_pop`, which must list the populated rounds in order) that
/// disagrees with the vertex and packet lists it is derived from.
#[derive(Debug, Clone)]
pub struct SimCheckpoint<S, M> {
    /// Rounds submitted to the meter and sealed when the checkpoint was
    /// taken. Unlike the synchronous engine, vertices may already be
    /// executing later rounds — those rounds' message buckets travel in
    /// [`SimCheckpoint::pending_rounds`].
    pub round: u64,
    /// Every vertex's program state.
    pub states: Vec<S>,
    /// Every vertex's synchronizer state.
    pub vx: Vec<VertexCheckpoint<M>>,
    /// In-flight packets, sorted by `(time, seq_key)`: the order the engine
    /// delivers them in.
    pub queue: Vec<PacketCheckpoint<M>>,
    /// The packet sequence counter.
    pub seq: u64,
    /// Message buckets of reconstructed rounds not yet submitted to the
    /// meter (rounds `round + 1, round + 2, …`).
    pub pending_rounds: Vec<Vec<Message>>,
    /// The meter's accumulator state, covering rounds `1..=round`.
    pub meter: MeterParts,
    /// Live vertices per `next_round` value (sorted by round).
    pub round_pop: Vec<(u64, usize)>,
    /// Number of live vertices.
    pub live: usize,
    /// Smallest `next_round` among live vertices.
    pub frontier: u64,
    /// Largest execution time observed.
    pub makespan: u64,
    /// In-flight packets per edge (indexed like the engine's edge list,
    /// which is rebuilt deterministically from the graph on restore).
    pub in_flight: Vec<usize>,
    /// Peak in-flight packets per edge.
    pub edge_peak: Vec<usize>,
    /// Total packets currently in flight.
    pub cur_in_flight: usize,
    /// Fault/synchronizer counters so far (the per-edge vectors stay empty
    /// until a run finishes).
    pub stats: SimStats,
}

/// A deterministic discrete-event simulator for asynchronous CONGEST
/// execution of unmodified [`NodeProgram`]s.
#[derive(Debug, Default)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator from a configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Runs `program` on every vertex of `g` until all vertices halt.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if the program violates the CONGEST model
    /// (non-edge send, or a reconstructed round over the bandwidth cap),
    /// [`RuntimeError::RoundLimit`] if any vertex exceeds the round budget,
    /// and [`RuntimeError::ClockOverflow`] if a latency would carry a packet
    /// past the last tick.
    pub fn run<P: NodeProgram>(
        &self,
        g: &Graph,
        program: &P,
    ) -> Result<SimExecution<P::State>, RuntimeError> {
        self.run_traced(g, program, &mut NullSink)
    }

    /// [`Simulator::run`] with an observer receiving dispatch/pulse events
    /// and per-round state digests (see `mfd-trace`).
    ///
    /// With [`NullSink`] this *is* [`Simulator::run`]: every hook site is
    /// guarded by the monomorphized [`RunObserver::ENABLED`] constant. The
    /// engine is fully sequential, so the event stream is deterministic for
    /// a given configuration, like the run itself.
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulator::run`]: without faults to blame, a blown round
    /// budget is the program's failure, not an outcome.
    pub fn run_traced<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
    ) -> Result<SimExecution<P::State>, RuntimeError> {
        let mut session = self.start(g, program, &NoFaults, observer)?;
        while session.step()?.is_some() {}
        match session.wedged {
            Some(limit) => Err(RuntimeError::RoundLimit { limit }),
            None => Ok(session.finish()?.run),
        }
    }

    /// Runs `program` under fault injection: every program message passes
    /// through `hook` at delivery, and vertices crash-stop per the hook's
    /// crash schedule (see the [`crate::faults`] module docs).
    ///
    /// Unlike [`Simulator::run`], a run that exhausts its round budget is
    /// **not** an error here: starving is an expected outcome of injected
    /// faults, so the partial states are returned with
    /// [`FaultOutcome::Wedged`]. With [`NoFaults`] this is bit-for-bit
    /// identical to [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if the program violates the CONGEST model
    /// (faults never excuse a violation — they act strictly after the meter
    /// has validated the round's sends), and [`RuntimeError::ClockOverflow`].
    pub fn run_with_faults<P: NodeProgram, F: FaultHook>(
        &self,
        g: &Graph,
        program: &P,
        hook: &F,
    ) -> Result<FaultedRun<P::State>, RuntimeError> {
        let mut sink = NullSink;
        let mut session = self.start(g, program, hook, &mut sink)?;
        while session.step()?.is_some() {}
        session.finish()
    }

    /// A fresh session, held after tick 0, for the one-shots and
    /// [`SimEngine`]'s `open`. With an observer it additionally emits one
    /// [`Event::FaultFate`] per message the hook touched and one
    /// [`Event::Crash`] per crash-stopped vertex.
    fn start<'a, P, F, O>(
        &'a self,
        g: &'a Graph,
        program: &'a P,
        hook: &'a F,
        observer: &'a mut O,
    ) -> Result<SimSession<'a, P, F, O>, RuntimeError>
    where
        P: NodeProgram,
        F: FaultHook,
        O: RunObserver<P::State>,
    {
        let engine = Engine::new(g, program, &self.config, hook, observer);
        let mut session = SimSession {
            engine,
            wedged: None,
        };
        let tick0 = session.engine.start().map(|()| true);
        session.absorb_wedge(tick0)?;
        Ok(session)
    }
}

/// A run held between two timestamp batches ([`SimEngine`]'s `open`) — the
/// event engine's counterpart of `mfd_runtime::Session`, with the same
/// inherent verbs (generic code calls them through [`SessionEngine`]).
///
/// Ticks are this engine's only consistent cuts, and one tick can seal
/// several rounds or none, so [`SimSession::step`] advances to the next tick
/// that sealed something rather than by exactly one round.
pub struct SimSession<'a, P: NodeProgram, F: FaultHook, O: RunObserver<P::State>> {
    engine: Engine<'a, P, F, O>,
    /// The budget some vertex blew. That ended the run mid-tick: a wedged
    /// session steps no further and is no longer a consistent cut.
    wedged: Option<u64>,
}

impl<P: NodeProgram, F: FaultHook, O: RunObserver<P::State>> SimSession<'_, P, F, O> {
    /// Processes timestamp batches until at least one more round has been
    /// submitted to the meter and returns the last round sealed, or `None`
    /// once the run is over: the event queue is empty, or a vertex exceeded
    /// the round budget (which [`SimSession::finish`] reports). A caller
    /// that checkpoints `if round >= next { …; next = round + every }` after
    /// each step cuts roughly every `every` rounds; each checkpoint records
    /// its own round.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] on a CONGEST violation,
    /// [`RuntimeError::ClockOverflow`] on an arrival past the last tick, and
    /// [`RuntimeError::CheckpointMismatch`] if the queue drains while vertices
    /// wait (a checkpoint that lost a packet). Each ends the session.
    pub fn step(&mut self) -> Result<Option<u64>, RuntimeError> {
        let sealed = self.engine.submitted;
        while self.wedged.is_none() {
            let ticked = self.engine.tick();
            if !self.absorb_wedge(ticked)? {
                break;
            }
            if self.engine.submitted > sealed {
                return Ok(Some(self.engine.submitted as u64));
            }
        }
        Ok(None)
    }

    /// The engine's complete state as plain data — a consistent cut, because
    /// between ticks every engine invariant holds (a blown round budget stops
    /// the engine mid-tick: a wedged session has no cut left to capture).
    pub fn checkpoint(&self) -> SimCheckpoint<P::State, P::Msg>
    where
        P::State: Clone,
    {
        self.engine.checkpoint()
    }

    /// Ends the session: flushes the rounds still unsubmitted to the meter
    /// and returns the report with its verdict —
    /// [`FaultOutcome::Wedged`] if a vertex blew the round budget (the
    /// states are then the partial ones), [`FaultOutcome::Completed`]
    /// otherwise. On a session whose `step` has not yet returned `None` this
    /// is the run as it stands.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if a flushed round violates the CONGEST model.
    pub fn finish(self) -> Result<FaultedRun<P::State>, RuntimeError> {
        let outcome = match self.wedged {
            Some(limit) => FaultOutcome::Wedged { limit },
            None => FaultOutcome::Completed,
        };
        self.engine.finish(outcome)
    }

    /// Where "a blown round budget is an outcome, not an error" lives: the
    /// limit is remembered for [`SimSession::finish`] and the run reads as
    /// over; [`Simulator::run`] and [`Simulator::run_traced`], with no faults
    /// to blame, and [`SimEngine`]'s `finish`, which matches the executor's,
    /// turn it back into [`RuntimeError::RoundLimit`].
    fn absorb_wedge(&mut self, ticked: Result<bool, RuntimeError>) -> Result<bool, RuntimeError> {
        match ticked {
            Err(RuntimeError::RoundLimit { limit }) => {
                self.wedged = Some(limit);
                Ok(false)
            }
            other => other,
        }
    }
}

/// The event engine as a [`SessionEngine`]: the simulator paired with the
/// fault hook its sessions run under ([`NoFaults`] for a clean network).
#[derive(Debug)]
pub struct SimEngine<F>(pub Simulator, pub F);

impl<P: NodeProgram, F: FaultHook> SessionEngine<P> for SimEngine<F> {
    const KIND: EngineKind = EngineKind::Sim;
    type Session<'a, O: RunObserver<P::State> + 'a>
        = SimSession<'a, P, F, O>
    where
        Self: 'a,
        P: 'a;
    type Checkpoint = SimCheckpoint<P::State, P::Msg>;
    type Run = SimExecution<P::State>;

    fn seed(&self) -> u64 {
        self.0.config.seed
    }

    /// A fresh session is held after tick 0 (round 0 sealed, every live
    /// vertex's round 1 executed); a restored one continues bit-identically
    /// under the same graph, program, hook and configuration
    /// ([`SimCheckpoint`]), which it is checked against.
    fn open<'a, O: RunObserver<P::State> + 'a>(
        &'a self,
        g: &'a Graph,
        program: &'a P,
        from: Option<Self::Checkpoint>,
        observer: &'a mut O,
    ) -> Result<SimSession<'a, P, F, O>, RuntimeError> {
        let SimEngine(sim, hook) = self;
        let Some(cp) = from else {
            return sim.start(g, program, hook, observer);
        };
        let engine = Engine::restored(g, program, &sim.config, hook, observer, cp)?;
        Ok(SimSession {
            engine,
            wedged: None,
        })
    }

    fn step<O: RunObserver<P::State>>(
        session: &mut SimSession<'_, P, F, O>,
    ) -> Result<Option<u64>, RuntimeError> {
        session.step()
    }

    fn checkpoint<O: RunObserver<P::State>>(session: &SimSession<'_, P, F, O>) -> Self::Checkpoint
    where
        P::State: Clone,
    {
        session.checkpoint()
    }

    fn observer<'s, O: RunObserver<P::State>>(session: &'s SimSession<'_, P, F, O>) -> &'s O {
        session.engine.observer
    }

    fn finish<O: RunObserver<P::State>>(
        session: SimSession<'_, P, F, O>,
    ) -> Result<Self::Run, RuntimeError> {
        let finished = session.finish()?;
        match finished.outcome {
            FaultOutcome::Wedged { limit } => Err(RuntimeError::RoundLimit { limit }),
            FaultOutcome::Completed => Ok(finished.run),
        }
    }

    fn cut(checkpoint: Self::Checkpoint) -> (u64, Vec<P::State>) {
        (checkpoint.round, checkpoint.states)
    }

    fn outcome(run: &Self::Run) -> (&[P::State], &RoundMeter) {
        (&run.states, &run.meter)
    }
}

impl<M> VertexCheckpoint<M> {
    /// Halted or crashed: no longer scheduled, mail dropped on arrival.
    fn gone(&self) -> bool {
        self.halted || self.crashed
    }
}

/// Vectors of `(key, value)` pairs sorted by key, used as maps.
mod sorted {
    fn find<K: Ord, V>(list: &[(K, V)], key: &K) -> Result<usize, usize> {
        list.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`, if any.
    pub(super) fn get<'l, K: Ord, V>(list: &'l [(K, V)], key: &K) -> Option<&'l V> {
        find(list, key).ok().map(|i| &list[i].1)
    }

    /// The value under `key`, inserted as `V::default()` if absent.
    pub(super) fn entry<K: Ord, V: Default>(list: &mut Vec<(K, V)>, key: K) -> &mut V {
        let i = find(list, &key).unwrap_or_else(|i| {
            list.insert(i, (key, V::default()));
            i
        });
        &mut list[i].1
    }

    /// Removes and returns the value under `key`, if any.
    pub(super) fn take<K: Ord, V>(list: &mut Vec<(K, V)>, key: &K) -> Option<V> {
        find(list, key).ok().map(|i| list.remove(i).1)
    }

    /// Whether `list`'s keys strictly increase: sorted and free of repeats.
    pub(super) fn strict<T, K: Ord>(list: &[T], key: impl Fn(&T) -> K) -> bool {
        list.windows(2).all(|w| key(&w[0]) < key(&w[1]))
    }
}

struct Engine<'a, P: NodeProgram, F: FaultHook, O: RunObserver<P::State>> {
    g: &'a Graph,
    program: &'a P,
    config: &'a SimConfig,
    hook: &'a F,
    observer: &'a mut O,
    /// Effective round budget: the configured cap, tightened by the
    /// program's [`NodeProgram::round_budget_hint`].
    max_rounds: u64,
    states: Vec<P::State>,
    /// Every vertex's synchronizer state, in the form a checkpoint carries
    /// it (see [`VertexCheckpoint`] for the invariants kept).
    vx: Vec<VertexCheckpoint<P::Msg>>,
    /// The calendar queue: in-flight packets by arrival tick, inline, each
    /// bucket in filing order; sorted by `seq_key`, a bucket is in delivery
    /// order under either [`TieBreak`], restored packets included.
    calendar: BTreeMap<u64, Vec<PacketCheckpoint<P::Msg>>>,
    /// Delivered buckets, emptied with their capacity kept, for later ticks.
    spare: Vec<Vec<PacketCheckpoint<P::Msg>>>,
    seq: u64,
    /// Reconstructed synchronous rounds: `per_round[r - 1]` holds every
    /// program message sent while some vertex executed its local round `r`.
    /// Buckets are submitted to `meter` (and their memory reclaimed) as soon
    /// as every live vertex has moved past the round, so model violations
    /// surface promptly and memory stays proportional to the round skew, not
    /// to the whole run.
    per_round: Vec<Vec<Message>>,
    /// Rounds already submitted to `meter` (a prefix of `per_round`).
    submitted: usize,
    meter: RoundMeter,
    /// Live (non-halted) vertices per `next_round` value, as a window of
    /// rounds starting at the frontier: `round_pop[i]` counts round
    /// `frontier + i`, and the front entry is non-zero while any vertex
    /// lives. Maintained incrementally so the meter frontier needs no
    /// per-tick vertex scan.
    round_pop: VecDeque<usize>,
    /// Number of live vertices.
    live: usize,
    /// Smallest `next_round` among live vertices (`u64::MAX` once all have
    /// halted): every reconstructed round below it is final.
    frontier: u64,
    makespan: u64,
    /// Edge numbering in `g.edges()` order: the edge from `u` to the
    /// neighbor at position `i` of its row, when that neighbor is above `u`,
    /// is `edge_row[u] + i`.
    edge_row: Vec<usize>,
    /// `g.edges()` for the final report, collected here: collected after the
    /// run it would sit above the run's freed memory and keep the allocator
    /// from reusing it, growing every further run's resident set.
    edges: Vec<(usize, usize)>,
    in_flight: Vec<usize>,
    edge_peak: Vec<usize>,
    cur_in_flight: usize,
    /// Scratch for [`Engine::execute_round`], indexed by position in the
    /// executing vertex's row: the payload for that neighbor, and how many
    /// messages were sent to it. Empty between rounds.
    outgoing: Vec<Vec<(P::Msg, usize, u64)>>,
    sent: Vec<usize>,
    /// The send buffer every vertex step fills, handed back and recycled.
    sends: SendBuf<P::Msg>,
    stats: SimStats,
}

impl<'a, P: NodeProgram, F: FaultHook, O: RunObserver<P::State>> Engine<'a, P, F, O> {
    /// An engine with everything derived from `g` and the configuration in
    /// place and no run state yet.
    fn assemble(
        g: &'a Graph,
        program: &'a P,
        config: &'a SimConfig,
        hook: &'a F,
        observer: &'a mut O,
    ) -> Self {
        // `next` edges have a lower endpoint below `u`; `u`'s own follow
        // them, from the first row position past the neighbors below `u`.
        let mut edge_row = Vec::with_capacity(g.n());
        let mut next = 0;
        for u in g.vertices() {
            let below = g.neighbors(u).partition_point(|&w| w < u);
            edge_row.push(next - below);
            next += g.degree(u) - below;
        }
        Engine {
            g,
            program,
            config,
            hook,
            observer,
            max_rounds: config
                .max_rounds
                .min(program.round_budget_hint().unwrap_or(u64::MAX)),
            states: Vec::new(),
            vx: Vec::new(),
            calendar: BTreeMap::new(),
            spare: Vec::new(),
            seq: 0,
            per_round: Vec::new(),
            submitted: 0,
            meter: RoundMeter::with_capacity(config.capacity_words),
            round_pop: VecDeque::new(),
            live: 0,
            frontier: u64::MAX,
            makespan: 0,
            edge_row,
            edges: g.edges().collect(),
            in_flight: vec![0; g.m()],
            edge_peak: vec![0; g.m()],
            cur_in_flight: 0,
            outgoing: Vec::new(),
            sent: Vec::new(),
            sends: SendBuf::new(),
            stats: SimStats::default(),
        }
    }

    fn new(
        g: &'a Graph,
        program: &'a P,
        config: &'a SimConfig,
        hook: &'a F,
        observer: &'a mut O,
    ) -> Self {
        let mut engine = Self::assemble(g, program, config, hook, observer);
        let (n, seed) = (g.n(), config.seed);
        let ctx = |v| NodeCtx::new(v, n, 0, g.neighbors(v), seed);
        let states: Vec<P::State> = (0..n).map(|v| program.init(&ctx(v))).collect();
        let vx: Vec<VertexCheckpoint<P::Msg>> = (0..n)
            .map(|v| VertexCheckpoint {
                halted: program.halted(&ctx(v), &states[v]),
                crashed: false,
                next_round: 1,
                completion: 0,
                pending: Vec::new(),
                late: Vec::new(),
                nbr_final_tag: Vec::new(),
            })
            .collect();
        (engine.states, engine.vx) = (states, vx);
        engine.live = engine.vx.iter().filter(|x| !x.halted).count();
        (engine.round_pop, engine.frontier) = (VecDeque::from([engine.live]), 1);
        engine.settle_frontier();
        // Round 0 is the initial configuration, digested exactly as the
        // synchronous engine digests it — the two chains share index 0.
        if O::ENABLED {
            for (v, state) in engine.states.iter().enumerate() {
                engine.observer.vertex_state(EngineKind::Sim, 0, v, state);
            }
            engine.observer.round_sealed(EngineKind::Sim, 0);
        }
        engine
    }

    /// Tick 0: vertices halted at initialization announce themselves; every
    /// other vertex executes round 1 (whose synchronous inbox is empty by
    /// definition, so it needs no incoming packets).
    fn start(&mut self) -> Result<(), RuntimeError> {
        for v in 0..self.g.n() {
            if self.vx[v].halted {
                let g = self.g;
                for &u in g.neighbors(v) {
                    self.send_packet(v, u, 0, Vec::new(), true, 0)?;
                }
            }
        }
        for v in 0..self.g.n() {
            if !self.vx[v].halted {
                self.try_advance(v, 0)?;
            }
        }
        Ok(())
    }

    /// Processes one timestamp batch: first buffer every arrival of the
    /// tick, then let ready vertices execute, then submit every round that
    /// can no longer grow. Returns `false` once the queue is empty (the run
    /// is over, nothing processed): the synchronizer invariant (a vertex
    /// waiting on some neighbor always has that neighbor's packet in flight
    /// or pending) guarantees that only happens once every vertex has halted
    /// — unless a restored checkpoint dropped a packet, a typed error.
    fn tick(&mut self) -> Result<bool, RuntimeError> {
        let Some((now, mut bucket)) = self.calendar.pop_first() else {
            if self.live > 0 {
                let what = "live vertices when the event queue drained";
                return Err(mismatch(what, 0, self.live as u64));
            }
            return Ok(false);
        };
        bucket.sort_unstable_by_key(|p| p.seq_key);
        let mut touched: Vec<usize> = Vec::new();
        for packet in bucket.drain(..) {
            self.arrive(packet, &mut touched);
        }
        self.spare.push(bucket);
        touched.sort_unstable();
        touched.dedup();
        if self.config.tie_break == TieBreak::ReverseInsertion {
            touched.reverse();
        }
        for v in touched {
            if !self.vx[v].gone() {
                self.try_advance(v, now)?;
            }
        }
        self.pump_meter()?;
        Ok(true)
    }

    /// The `g.edges()` index of the edge `{u, v}`, if it is one.
    fn edge(&self, u: usize, v: usize) -> Option<usize> {
        let (lo, hi) = (u.min(v), u.max(v));
        let row = *self.edge_row.get(lo)?;
        Some(row + self.g.neighbors(lo).binary_search(&hi).ok()?)
    }

    /// The round window's non-zero entries as `(round, live vertices)`.
    fn round_pop_listing(&self) -> Vec<(u64, usize)> {
        self.round_pop
            .iter()
            .enumerate()
            .filter(|&(_, &pop)| pop > 0)
            .map(|(i, &pop)| (self.frontier + i as u64, pop))
            .collect()
    }

    /// Captures the engine's complete state (valid only between ticks).
    fn checkpoint(&self) -> SimCheckpoint<P::State, P::Msg>
    where
        P::State: Clone,
    {
        let mut queue = Vec::new();
        for bucket in self.calendar.values() {
            let at = queue.len();
            queue.extend_from_slice(bucket);
            queue[at..].sort_unstable_by_key(|p: &PacketCheckpoint<P::Msg>| p.seq_key);
        }
        SimCheckpoint {
            round: self.submitted as u64,
            states: self.states.clone(),
            vx: self.vx.clone(),
            queue,
            seq: self.seq,
            pending_rounds: self.per_round[self.submitted..].to_vec(),
            meter: self.meter.to_parts(),
            round_pop: self.round_pop_listing(),
            live: self.live,
            frontier: self.frontier,
            makespan: self.makespan,
            in_flight: self.in_flight.clone(),
            edge_peak: self.edge_peak.clone(),
            cur_in_flight: self.cur_in_flight,
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds the engine from a checkpoint — no `init`, no round-0 seal, no
    /// [`Engine::start`] — after checking it against `g` and the round
    /// budget: every index the engine will follow, every counter it derives
    /// from the vertex and packet lists and then trusts, and the order of
    /// every list it then adopts as its own state.
    fn restored(
        g: &'a Graph,
        program: &'a P,
        config: &'a SimConfig,
        hook: &'a F,
        observer: &'a mut O,
        cp: SimCheckpoint<P::State, P::Msg>,
    ) -> Result<Self, RuntimeError> {
        let mut engine = Self::assemble(g, program, config, hook, observer);
        let (n, m) = (g.n(), g.m());
        for (what, expected, found) in [
            ("states length", n, cp.states.len()),
            ("vx length", n, cp.vx.len()),
            ("in_flight length", m, cp.in_flight.len()),
            ("edge_peak length", m, cp.edge_peak.len()),
        ] {
            if found != expected {
                return Err(mismatch(what, expected as u64, found as u64));
            }
        }
        // Vertices may run ahead of the sealed rounds, up to the furthest
        // reconstructed one: that is the round every state is judged at.
        let furthest = cp.round.saturating_add(cp.pending_rounds.len() as u64);
        check_fits(g, program, furthest, config.seed, &cp.states)?;
        if cp.round > engine.max_rounds {
            let what = "round exceeds the round budget";
            return Err(mismatch(what, engine.max_rounds, cp.round));
        }
        let edge_of = |src: usize, dst: usize| {
            let what = "traffic to vertex `expected` from non-neighbour `found`";
            engine
                .edge(src, dst)
                .ok_or(mismatch(what, dst as u64, src as u64))
        };
        // A live vertex is past every submitted round and at most one past
        // the reconstructed ones; the window spans no more than that.
        let first = cp.round.saturating_add(1);
        let mut window = vec![0; cp.pending_rounds.len() + 1];
        for (v, x) in cp.vx.iter().enumerate() {
            let pending = x.pending.iter().flat_map(|(_, bucket)| bucket);
            let late = x.late.iter().flat_map(|(_, msgs)| msgs);
            for src in pending
                .map(|&(src, _)| src)
                .chain(late.map(|&(src, ..)| src))
                .chain(x.nbr_final_tag.iter().map(|&(src, _)| src))
            {
                edge_of(src, v)?;
            }
            if !x.gone() {
                let at = x.next_round.checked_sub(first);
                let at = at.and_then(|i| usize::try_from(i).ok());
                let Some(pop) = at.and_then(|i| window.get_mut(i)) else {
                    return Err(mismatch("a live vertex's next round", first, x.next_round));
                };
                *pop += 1;
            }
            let r = x.next_round;
            let orderly = sorted::strict(&x.pending, |&(tag, _)| tag)
                && x.pending.iter().all(|(tag, bucket)| {
                    (r.saturating_sub(1).max(1)..=r).contains(tag)
                        && !bucket.is_empty()
                        && sorted::strict(bucket, |&(src, _)| src)
                })
                && sorted::strict(&x.late, |&(round, _)| round)
                && x.late.iter().all(|(_, msgs)| {
                    !msgs.is_empty() && sorted::strict(msgs, |&(src, tag, idx, _)| (src, tag, idx))
                })
                && sorted::strict(&x.nbr_final_tag, |&(src, _)| src);
            if !orderly {
                let what = "buffers of vertex `expected` at next round `found`: keys unsorted \
                            or repeated, an empty entry, or a pending tag outside \
                            {`found` - 1, `found`}";
                return Err(mismatch(what, v as u64, r));
            }
        }
        let mut in_flight = vec![0; m];
        for p in &cp.queue {
            let e = edge_of(p.src, p.dst)?;
            in_flight[e] += usize::from(!p.notice);
            // A live receiver reads round packets of `pending`'s window only.
            let x = &cp.vx[p.dst];
            if !p.notice
                && p.tag >= 1
                && !x.gone()
                && !(x.next_round - 1..=x.next_round).contains(&p.tag)
            {
                let what = "a queued packet's tag outside its live receiver's \
                            {next round `expected` - 1, `expected`}";
                return Err(mismatch(what, x.next_round, p.tag));
            }
        }
        if let Some(e) = (0..m).find(|&e| in_flight[e] != cp.in_flight[e]) {
            let what = "in-flight packets on an edge";
            return Err(mismatch(what, in_flight[e] as u64, cp.in_flight[e] as u64));
        }
        let queued: usize = in_flight.iter().sum();
        if cp.cur_in_flight != queued {
            let what = "packets in flight";
            return Err(mismatch(what, queued as u64, cp.cur_in_flight as u64));
        }
        engine.live = window.iter().sum();
        (engine.round_pop, engine.frontier) = (window.into(), first);
        engine.settle_frontier();
        if (cp.live, cp.frontier) != (engine.live, engine.frontier)
            || cp.round_pop != engine.round_pop_listing()
        {
            let what = "live vertices, or the rounds they are in";
            return Err(mismatch(what, engine.live as u64, cp.live as u64));
        }

        for p in cp.queue {
            engine.calendar.entry(p.time).or_default().push(p);
        }
        engine.submitted = cp.round as usize;
        engine.per_round.resize_with(engine.submitted, Vec::new);
        engine.per_round.extend(cp.pending_rounds);
        (engine.states, engine.vx) = (cp.states, cp.vx);
        engine.seq = cp.seq;
        engine.meter = RoundMeter::from_parts(cp.meter);
        engine.makespan = cp.makespan;
        (engine.in_flight, engine.edge_peak) = (in_flight, cp.edge_peak);
        engine.cur_in_flight = cp.cur_in_flight;
        engine.stats = cp.stats;
        Ok(engine)
    }

    /// Submits every reconstructed round that can no longer grow — all live
    /// vertices have moved past it — to the meter, in round order, freeing
    /// the bucket. This is the same round-by-round model policing the
    /// synchronous engine applies, so a bandwidth violation aborts the run
    /// within one tick of the last vertex leaving the offending round instead
    /// of after the whole simulation.
    fn pump_meter(&mut self) -> Result<(), RuntimeError> {
        while self.submitted < self.per_round.len() && (self.submitted as u64) + 1 < self.frontier {
            let msgs = std::mem::take(&mut self.per_round[self.submitted]);
            self.meter
                .round(self.g, &msgs)
                .map_err(RuntimeError::Model)?;
            self.submitted += 1;
            // The round's bucket is final, so its digests can be folded.
            if O::ENABLED {
                let round = self.submitted as u64;
                self.observer.event(&Event::RoundClose {
                    engine: EngineKind::Sim,
                    round,
                    messages: self.meter.messages(),
                });
                self.observer.round_sealed(EngineKind::Sim, round);
            }
        }
        Ok(())
    }

    fn finish(mut self, outcome: FaultOutcome) -> Result<FaultedRun<P::State>, RuntimeError> {
        // Flush the rounds still unsubmitted when the last vertices halted
        // (or starved): every one of them is final now.
        self.frontier = u64::MAX;
        self.pump_meter()?;
        let meter = self.meter;
        self.stats.payload_messages = meter.messages();
        // Slipped messages whose target round never executed (the receiver
        // halted, crashed or starved first) are stale: sent, never read.
        self.stats.stale_slipped += self
            .vx
            .iter()
            .flat_map(|x| &x.late)
            .map(|(_, msgs)| msgs.len() as u64)
            .sum::<u64>();
        let completion: Vec<u64> = self.vx.iter().map(|x| x.completion).collect();
        let crashed: Vec<bool> = self.vx.iter().map(|x| x.crashed).collect();
        self.stats.edges = self.edges;
        self.stats.edge_in_flight_peak = self.edge_peak;
        Ok(FaultedRun {
            run: SimExecution {
                rounds: meter.rounds(),
                messages: meter.messages(),
                makespan: self.makespan,
                completion,
                stats: self.stats,
                states: self.states,
                meter,
            },
            outcome,
            crashed,
        })
    }

    fn arrive(&mut self, packet: PacketCheckpoint<P::Msg>, touched: &mut Vec<usize>) {
        let x = &mut self.vx[packet.dst];
        if packet.notice {
            // Failure-detector verdict: stop waiting for the crashed sender
            // past its final executed round. Not a network packet — no
            // congestion accounting, nothing enters any inbox.
            if !x.gone() {
                *sorted::entry(&mut x.nbr_final_tag, packet.src) = packet.tag;
                touched.push(packet.dst);
            }
            return;
        }
        let e = self
            .edge(packet.src, packet.dst)
            .expect("packets follow edges");
        self.in_flight[e] -= 1;
        self.cur_in_flight -= 1;
        let x = &mut self.vx[packet.dst];
        if packet.halt {
            *sorted::entry(&mut x.nbr_final_tag, packet.src) = packet.tag;
        }
        if x.gone() {
            // The synchronous engine likewise never reads mail addressed to a
            // halted vertex. Slipped/duplicated copies in the payload go
            // stale here, not into a late buffer, so they are counted now —
            // the fault counters must balance.
            self.stats.dropped_packets += 1;
            self.stats.stale_slipped += packet
                .payload
                .iter()
                .filter(|&&(_, _, slip)| slip > 0)
                .count() as u64;
            return;
        }
        if packet.tag >= 1 {
            // Adjacent vertices' rounds never drift by more than one, so a
            // live receiver's buffered tags are its next round and the one
            // below: `pending` never holds more than two.
            debug_assert!(
                (x.next_round - 1..=x.next_round).contains(&packet.tag),
                "tag {} reached vertex {} at next round {}: synchronizer skew broken",
                packet.tag,
                packet.dst,
                x.next_round
            );
            // Split the payload: on-time messages join the tag's synchronous
            // inbox; slipped ones wait for their later target round, in
            // `(src, tag, idx)` replay order. The packet itself is always
            // registered — the skeleton is the ready pulse the synchronizer
            // counts, faults only touch the payload.
            let mut on_time = Vec::with_capacity(packet.payload.len());
            for (idx, (msg, words, slip)) in packet.payload.into_iter().enumerate() {
                if slip == 0 {
                    on_time.push((msg, words));
                } else {
                    let late = sorted::entry(&mut x.late, packet.tag + 1 + slip);
                    let key = (packet.src, packet.tag, idx);
                    let at = late.partition_point(|&(s, t, i, _)| (s, t, i) < key);
                    late.insert(at, (packet.src, packet.tag, idx, msg));
                }
            }
            let bucket = sorted::entry(&mut x.pending, packet.tag);
            let at = bucket.partition_point(|&(src, _)| src < packet.src);
            bucket.insert(at, (packet.src, on_time));
        }
        // Even a tag-0 halt announcement can unblock the receiver (it stops
        // waiting for that neighbor), so the vertex is always re-examined.
        touched.push(packet.dst);
    }

    /// Executes as many consecutive local rounds of `v` as are ready at the
    /// current tick. Several rounds can fire back to back: a vertex whose
    /// neighbors ran ahead may hold all the packets its next round needs, and
    /// an isolated vertex has no one to wait for at all. A vertex whose crash
    /// round has come dies instead of executing.
    fn try_advance(&mut self, v: usize, now: u64) -> Result<(), RuntimeError> {
        loop {
            if self.vx[v].gone() {
                return Ok(());
            }
            if let Some(r) = self.hook.crash_round(v) {
                if self.vx[v].next_round >= r {
                    return self.crash(v, now);
                }
            }
            if !self.ready(v) {
                return Ok(());
            }
            self.execute_round(v, now)?;
        }
    }

    /// Crash-stops `v` just before its next local round: it sends nothing
    /// ever again, and `detection_delay` ticks later each neighbor's failure
    /// detector fires and stops waiting for it.
    fn crash(&mut self, v: usize, now: u64) -> Result<(), RuntimeError> {
        let r = self.vx[v].next_round;
        self.vx[v].crashed = true;
        self.vx[v].completion = now;
        self.stats.crashed_vertices += 1;
        if O::ENABLED {
            self.observer.event(&Event::Crash {
                vertex: v,
                round: r,
                time: now,
            });
        }
        self.leave_round(r, true);
        let time = arrival(now, self.hook.detection_delay())?;
        let g = self.g;
        for &u in g.neighbors(v) {
            self.stats.crash_notices += 1;
            self.enqueue(PacketCheckpoint {
                time,
                seq_key: 0,
                src: v,
                dst: u,
                tag: r - 1,
                payload: Vec::new(),
                halt: false,
                notice: true,
            });
        }
        Ok(())
    }

    /// Frontier bookkeeping for a vertex leaving round `r`'s live population,
    /// either for round `r + 1` or (halt/crash) for good.
    fn leave_round(&mut self, r: u64, gone: bool) {
        let i = (r - self.frontier) as usize;
        self.round_pop[i] -= 1;
        if gone {
            self.live -= 1;
        } else {
            if i + 1 == self.round_pop.len() {
                self.round_pop.push_back(0);
            }
            self.round_pop[i + 1] += 1;
        }
        self.settle_frontier();
    }

    /// Moves the frontier past emptied rounds. It only ever advances, so the
    /// walk is amortized over the whole run.
    fn settle_frontier(&mut self) {
        while self.round_pop.front() == Some(&0) {
            self.round_pop.pop_front();
            self.frontier += 1;
        }
        if self.round_pop.is_empty() {
            self.frontier = u64::MAX;
        }
    }

    /// Whether `v` holds everything its next local round needs: a packet
    /// tagged `next_round - 1` from every neighbor still live at that round
    /// (round 1 needs nothing — its synchronous inbox is empty).
    ///
    /// Counting suffices: every vertex sends exactly one packet per tag, so
    /// the bucket's length is the number of distinct neighbors heard from,
    /// and a neighbor whose final tag is below `need` never sent one — the
    /// two sets are disjoint and must jointly cover the neighborhood.
    fn ready(&self, v: usize) -> bool {
        let vx = &self.vx[v];
        if vx.next_round == 1 {
            return true;
        }
        let need = vx.next_round - 1;
        let heard = sorted::get(&vx.pending, &need).map_or(0, Vec::len);
        let excused = vx
            .nbr_final_tag
            .iter()
            .filter(|&&(_, last)| last < need)
            .count();
        heard + excused == self.g.degree(v)
    }

    fn execute_round(&mut self, v: usize, now: u64) -> Result<(), RuntimeError> {
        let x = &mut self.vx[v];
        let r = x.next_round;
        if r > self.max_rounds {
            return Err(RuntimeError::RoundLimit {
                limit: self.max_rounds,
            });
        }
        // The synchronous inbox for round r: tag r-1 payloads, flattened in
        // increasing sender order (the synchronous executor's commit order).
        let buffered = sorted::take(&mut x.pending, &(r - 1)).unwrap_or_default();
        let mut inbox: Vec<Envelope<P::Msg>> = buffered
            .into_iter()
            .flat_map(|(src, payload)| {
                payload
                    .into_iter()
                    .map(move |(msg, _words)| Envelope { src, msg })
            })
            .collect();
        // Messages the fault hook slipped to this round join after the
        // regular, sender-sorted ones, in their deterministic replay order
        // (sender, original round, send index) that no event-queue
        // tie-breaking can perturb.
        if let Some(late) = sorted::take(&mut x.late, &r) {
            self.stats.slipped_delivered += late.len() as u64;
            inbox.extend(
                late.into_iter()
                    .map(|(src, _, _, msg)| Envelope { src, msg }),
            );
        }

        let ctx = NodeCtx::new(v, self.g.n(), r, self.g.neighbors(v), self.config.seed);
        let out: VertexRound<P::Msg> = driver::step_vertex(
            self.program,
            &ctx,
            &mut self.states[v],
            &inbox,
            std::mem::take(&mut self.sends),
        );
        if let Some(err) = out.violation {
            return Err(RuntimeError::Model(err));
        }
        if O::ENABLED {
            self.observer.event(&Event::VertexStep {
                engine: EngineKind::Sim,
                round: r,
                vertex: v,
                inbox: inbox.len(),
                sent: out.sends.msgs.len(),
            });
            self.observer
                .vertex_state(EngineKind::Sim, r, v, &self.states[v]);
        }

        self.makespan = self.makespan.max(now);
        if self.per_round.len() < r as usize {
            self.per_round.resize_with(r as usize, Vec::new);
        }
        self.per_round[(r - 1) as usize].extend(driver::to_messages(v, &out.sends.msgs));

        // Group this round's sends by neighbor, preserving send order, with
        // the fault hook ruling on every message *after* it was metered (the
        // sender pays for lost messages; only delivery changes). The
        // per-edge send index keys the hook's random stream.
        let g = self.g;
        let neighbors = g.neighbors(v);
        let mut outgoing = std::mem::take(&mut self.outgoing);
        outgoing.resize_with(neighbors.len(), Vec::new);
        self.sent.resize(neighbors.len(), 0);
        let seed = self.config.seed;
        let mut sends = out.sends;
        for ((dst, msg, words), &slot) in sends.msgs.drain(..).zip(&sends.slots) {
            let entry = &mut outgoing[slot];
            let index = self.sent[slot];
            self.sent[slot] += 1;
            let fate = self.hook.message_fate(seed, v, dst, r, index);
            if O::ENABLED {
                let kind = match fate {
                    MessageFate::Deliver => None,
                    MessageFate::Drop => Some(FateKind::Drop),
                    MessageFate::Duplicate { .. } => Some(FateKind::Duplicate),
                    MessageFate::Slip { .. } => Some(FateKind::Slip),
                };
                if let Some(fate) = kind {
                    self.observer.event(&Event::FaultFate {
                        src: v,
                        dst,
                        round: r,
                        fate,
                    });
                }
            }
            match fate {
                MessageFate::Deliver => entry.push((msg, words, 0)),
                MessageFate::Drop => self.stats.lost_messages += 1,
                MessageFate::Duplicate { slip } => {
                    self.stats.duplicated_messages += 1;
                    entry.push((msg.clone(), words, 0));
                    entry.push((msg, words, slip.max(1)));
                }
                MessageFate::Slip { slip } => {
                    self.stats.slipped_messages += 1;
                    entry.push((msg, words, slip.max(1)));
                }
            }
        }

        self.sends = sends;

        let x = &mut self.vx[v];
        (x.halted, x.next_round, x.completion) = (out.halted, r + 1, now);
        self.leave_round(r, out.halted);

        // The synchronizer pulse: one packet per neighbor, tagged with this
        // round, carrying the payload for that edge and the halt flag.
        self.sent.clear();
        for (payload, &u) in outgoing.drain(..).zip(neighbors) {
            self.send_packet(v, u, r, payload, out.halted, now)?;
        }
        self.outgoing = outgoing;
        Ok(())
    }

    /// Sends a synchronizer packet along the edge `src → dst` at tick `now`:
    /// samples the link latency and does the congestion accounting.
    fn send_packet(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Vec<(P::Msg, usize, u64)>,
        halt: bool,
        now: u64,
    ) -> Result<(), RuntimeError> {
        let delay = self.config.latency.sample(self.config.seed, src, dst, tag);
        let time = arrival(now, delay)?;
        if O::ENABLED {
            self.observer.event(&Event::Pulse {
                time: now,
                src,
                dst,
                payload: payload.len(),
                halt,
            });
        }
        self.stats.packets += 1;
        if payload.is_empty() {
            self.stats.pure_pulses += 1;
        } else {
            self.stats.payload_packets += 1;
        }
        let e = self.edge(src, dst).expect("packets follow edges");
        self.in_flight[e] += 1;
        self.cur_in_flight += 1;
        // Arrivals of a tick are processed before its sends, so these peaks
        // are independent of equal-time event ordering.
        self.edge_peak[e] = self.edge_peak[e].max(self.in_flight[e]);
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.cur_in_flight);
        self.enqueue(PacketCheckpoint {
            time,
            seq_key: 0,
            src,
            dst,
            tag,
            payload,
            halt,
            notice: false,
        });
        Ok(())
    }

    /// Files `packet` in the bucket of its arrival `time`, stamping its
    /// sequence key over the placeholder (no latency sampling, no congestion
    /// accounting — [`Engine::send_packet`] layers those on top; crash
    /// notices use this directly). A new bucket holds one packet per directed
    /// edge (tick 0's sends; any tick's under a fixed latency): grown by
    /// doubling, buckets would move the peak RSS.
    fn enqueue(&mut self, mut packet: PacketCheckpoint<P::Msg>) {
        packet.seq_key = match self.config.tie_break {
            TieBreak::InsertionOrder => self.seq,
            TieBreak::ReverseInsertion => u64::MAX - self.seq,
        };
        self.seq += 1;
        let (spare, directed) = (&mut self.spare, 2 * self.g.m());
        self.calendar
            .entry(packet.time)
            .or_insert_with(|| spare.pop().unwrap_or_else(|| Vec::with_capacity(directed)))
            .push(packet);
    }
}

/// A checkpoint that does not fit the run.
fn mismatch(what: &'static str, expected: u64, found: u64) -> RuntimeError {
    RuntimeError::CheckpointMismatch {
        what,
        expected,
        found,
    }
}

/// The arrival tick of a packet sent at `now`: at least one tick later.
fn arrival(now: u64, delay: u64) -> Result<u64, RuntimeError> {
    let delay = delay.max(1);
    now.checked_add(delay)
        .ok_or(RuntimeError::ClockOverflow { now, delay })
}

/// Runs `program` under both engines — the synchronous [`Executor`] and this
/// crate's [`Simulator`] with the given latency model — from one shared
/// configuration, so the pair `(executor run, simulator run)` is directly
/// comparable (identical seeds, round budgets and bandwidth caps).
///
/// With [`LatencyModel::Fixed`]`(1)` the two final state vectors are
/// bit-for-bit identical for any program whose
/// [`NodeProgram::quiescent`] declaration honors the strict no-op contract
/// (the default — never quiescent — always does); the differential test
/// suites lean on exactly this. Programs that deliberately trade a
/// round-triggered timeout for the executor's fixpoint break (the BFS and
/// Voronoi ports' unreachability timeouts) agree bit-for-bit on every
/// connected input and in their public outputs everywhere, but on
/// disconnected inputs the engines may differ in round counts and private
/// protocol flags.
///
/// # Errors
///
/// Propagates the first engine failure (synchronous first).
pub fn run_both<S, P: NodeProgram<State = S>>(
    g: &Graph,
    program: &P,
    exec_config: &ExecutorConfig,
    latency: LatencyModel,
) -> Result<(Execution<S>, SimExecution<S>), RuntimeError> {
    let sync = Executor::new(exec_config.clone()).run(g, program)?;
    let sim = Simulator::new(SimConfig::matching(exec_config, latency)).run(g, program)?;
    Ok((sync, sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_congest::CongestError;
    use mfd_graph::generators;
    use mfd_runtime::Outbox;

    /// Every vertex broadcasts its id once, then counts what it hears for
    /// two more rounds.
    struct Census;

    impl NodeProgram for Census {
        type State = (u64, u64); // (sum of heard ids, messages heard)
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) -> (u64, u64) {
            (0, 0)
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut (u64, u64),
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            for env in inbox {
                state.0 += env.msg;
                state.1 += 1;
            }
            if ctx.round == 1 {
                out.broadcast(ctx.id as u64);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &(u64, u64)) -> bool {
            ctx.round >= 2
        }
    }

    #[test]
    fn census_counts_neighbors_under_any_latency() {
        let g = generators::cycle(8);
        for latency in [
            LatencyModel::Fixed(1),
            LatencyModel::Fixed(5),
            LatencyModel::Uniform { lo: 1, hi: 9 },
            LatencyModel::HeavyTail {
                min: 1,
                alpha: 1.3,
                cap: 40,
            },
        ] {
            let sim = Simulator::new(SimConfig::default().with_latency(latency));
            let run = sim.run(&g, &Census).unwrap();
            assert_eq!(run.rounds, 2);
            assert_eq!(run.messages, 2 * g.m() as u64);
            for (v, &(sum, heard)) in run.states.iter().enumerate() {
                assert_eq!(heard, 2, "vertex {v}");
                let expected: u64 = g.neighbors(v).iter().map(|&u| u as u64).sum();
                assert_eq!(sum, expected, "vertex {v}");
            }
        }
    }

    #[test]
    fn fixed_unit_latency_matches_synchronous_executor() {
        let g = generators::triangulated_grid(6, 7);
        let (sync, sim) = run_both(
            &g,
            &Census,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        assert_eq!(sync.states, sim.states);
        assert_eq!(sync.rounds, sim.rounds);
        assert_eq!(sync.messages, sim.messages);
        assert_eq!(
            sync.meter.max_words_on_edge(),
            sim.meter.max_words_on_edge()
        );
        // Round r fires at tick r - 1 under unit delays.
        assert_eq!(sim.makespan, sim.rounds - 1);
    }

    #[test]
    fn makespan_scales_with_fixed_latency() {
        let g = generators::path(5);
        let d3 = Simulator::new(SimConfig::default().with_latency(LatencyModel::Fixed(3)));
        let run = d3.run(&g, &Census).unwrap();
        // Round 1 at tick 0, round 2 once the 3-tick packets land.
        assert_eq!(run.rounds, 2);
        assert_eq!(run.makespan, 3);
        assert!(run.completion.iter().all(|&t| t == 3));
    }

    #[test]
    fn runs_are_reproducible_and_tie_break_independent() {
        let g = generators::wheel(24);
        let base = SimConfig::default().with_latency(LatencyModel::Uniform { lo: 1, hi: 6 });
        let a = Simulator::new(base.clone()).run(&g, &Census).unwrap();
        let b = Simulator::new(base.clone()).run(&g, &Census).unwrap();
        let c = Simulator::new(SimConfig {
            tie_break: TieBreak::ReverseInsertion,
            ..base
        })
        .run(&g, &Census)
        .unwrap();
        for other in [&b, &c] {
            assert_eq!(a.states, other.states);
            assert_eq!(a.makespan, other.makespan);
            assert_eq!(a.completion, other.completion);
            assert_eq!(a.rounds, other.rounds);
            assert_eq!(a.messages, other.messages);
            assert_eq!(a.stats.packets, other.stats.packets);
            assert_eq!(a.stats.peak_in_flight, other.stats.peak_in_flight);
            assert_eq!(a.stats.edge_in_flight_peak, other.stats.edge_in_flight_peak);
        }
    }

    #[test]
    fn synchronizer_overhead_is_reported() {
        let g = generators::star(6);
        let run = Simulator::new(SimConfig::default())
            .run(&g, &Census)
            .unwrap();
        // Round 1 packets all carry payload; round 2 packets are pure pulses.
        assert_eq!(run.stats.packets, 4 * g.m() as u64);
        assert_eq!(run.stats.payload_packets, 2 * g.m() as u64);
        assert_eq!(run.stats.pure_pulses, 2 * g.m() as u64);
        assert!((run.stats.overhead_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(run.stats.payload_messages, run.messages);
    }

    /// Halts at init on odd vertices; even vertices count two rounds.
    struct HalfAsleep;

    impl NodeProgram for HalfAsleep {
        type State = u64;
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) -> u64 {
            0
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut u64,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            *state += inbox.len() as u64;
            if ctx.round == 1 {
                out.broadcast(1);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &u64) -> bool {
            ctx.id % 2 == 1 || ctx.round >= 3
        }
    }

    #[test]
    fn init_halted_vertices_are_announced_not_awaited() {
        // On a path, every even vertex is wedged between init-halted odd
        // vertices; without tag-0 halt announcements it would deadlock
        // waiting for their round-1 packets.
        let g = generators::path(7);
        let run = Simulator::new(SimConfig::default())
            .run(&g, &HalfAsleep)
            .unwrap();
        assert_eq!(run.rounds, 3);
        // Messages to the init-halted odd vertices are dropped on arrival.
        assert!(run.stats.dropped_packets > 0);
        // Odd vertices never ran; even vertices only have init-halted
        // neighbors, so nobody ever hears anything.
        assert!(run.states.iter().all(|&heard| heard == 0));
        for (v, &t) in run.completion.iter().enumerate() {
            if v % 2 == 1 {
                assert_eq!(t, 0, "init-halted vertex {v} has no completion time");
            }
        }
    }

    #[test]
    fn degree_zero_vertices_spin_to_completion_instantly() {
        let g = Graph::new(3); // no edges
        let run = Simulator::new(SimConfig::default())
            .run(&g, &Census)
            .unwrap();
        assert_eq!(run.rounds, 2);
        assert_eq!(run.makespan, 0);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn round_limit_guards_non_halting_programs() {
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
        let g = generators::path(3);
        let sim = Simulator::new(SimConfig {
            max_rounds: 10,
            ..SimConfig::default()
        });
        assert_eq!(
            sim.run(&g, &Spinner).unwrap_err(),
            RuntimeError::RoundLimit { limit: 10 }
        );
    }

    #[test]
    fn non_edge_sends_are_rejected() {
        struct BadSender;
        impl NodeProgram for BadSender {
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
                    out.send(ctx.n - 1, 1);
                }
            }
            fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
                ctx.round >= 1
            }
        }
        let g = generators::path(4);
        let err = Simulator::new(SimConfig::default())
            .run(&g, &BadSender)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Model(_)));
    }

    #[test]
    fn bandwidth_overcommitment_is_rejected() {
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
                // Vertex 1 overcommits (1, 2) and then (1, 0); vertex 2
                // overcommits (2, 1).
                let dsts: &[usize] = match ctx.id {
                    1 => &[2, 2, 0, 0],
                    2 => &[1, 1],
                    _ => &[],
                };
                for &dst in dsts {
                    out.send(dst, 1);
                }
            }
            fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
                ctx.round >= 1
            }
        }
        let g = generators::path(3);
        let err = Simulator::new(SimConfig::default())
            .run(&g, &DoubleSender)
            .unwrap_err();
        // The smallest overcommitted source's first-sent edge, in every run.
        assert_eq!(
            err,
            RuntimeError::Model(CongestError::BandwidthExceeded {
                src: 1,
                dst: 2,
                words: 2,
                capacity: 1,
            })
        );
        // With two words of per-edge capacity the same program is legal.
        let ok = Simulator::new(SimConfig {
            capacity_words: 2,
            ..SimConfig::default()
        })
        .run(&g, &DoubleSender);
        ok.unwrap();
    }

    #[test]
    fn per_edge_latency_reads_the_weighted_graph() {
        use mfd_graph::WeightedGraph;
        let g = generators::path(3); // edges {0,1}, {1,2}
        let w = WeightedGraph::from_edges(3, [(0, 1, 10), (1, 2, 1)]);
        let run = Simulator::new(SimConfig::default().with_latency(LatencyModel::PerEdge(w)))
            .run(&g, &Census)
            .unwrap();
        // Vertex 2 only waits on the fast edge; vertex 0 waits on the slow one.
        assert_eq!(run.completion[2], 1);
        assert_eq!(run.completion[0], 10);
        assert_eq!(run.rounds, 2);
    }

    #[test]
    fn empty_graph_finishes_immediately() {
        let g = Graph::new(0);
        let run = Simulator::new(SimConfig::default())
            .run(&g, &Census)
            .unwrap();
        assert_eq!(run.rounds, 0);
        assert_eq!(run.makespan, 0);
        assert!(run.states.is_empty());
    }

    /// Drops every message to odd-id vertices; crashes per a fixed schedule.
    #[derive(Clone)]
    struct TestHook {
        drop_to_odd: bool,
        crashes: Vec<(usize, u64)>,
        slip_all: u64,
    }

    impl FaultHook for TestHook {
        fn message_fate(
            &self,
            _seed: u64,
            _src: usize,
            dst: usize,
            _round: u64,
            _index: usize,
        ) -> MessageFate {
            if self.drop_to_odd && dst % 2 == 1 {
                MessageFate::Drop
            } else if self.slip_all > 0 {
                MessageFate::Slip {
                    slip: self.slip_all,
                }
            } else {
                MessageFate::Deliver
            }
        }

        fn crash_round(&self, vertex: usize) -> Option<u64> {
            self.crashes
                .iter()
                .find(|&&(v, _)| v == vertex)
                .map(|&(_, r)| r)
        }
    }

    /// Steps a fresh session to the end, checkpointing after every step; the
    /// stepped run must itself end in `states`, and every cut list its queue
    /// in delivery order.
    fn checkpoint_every_step<P, F>(
        engine: &SimEngine<F>,
        g: &Graph,
        program: &P,
        states: &[P::State],
    ) -> Vec<SimCheckpoint<P::State, P::Msg>>
    where
        P: NodeProgram,
        P::State: Clone + PartialEq + std::fmt::Debug,
        F: FaultHook,
    {
        let mut sink = NullSink;
        let mut session = engine.open(g, program, None, &mut sink).unwrap();
        let mut checkpoints = Vec::new();
        while let Some(round) = session.step().unwrap() {
            let cp = session.checkpoint();
            assert_eq!(cp.round, round);
            let order = |p: &PacketCheckpoint<P::Msg>| (p.time, p.seq_key);
            assert!(cp.queue.windows(2).all(|w| order(&w[0]) < order(&w[1])));
            checkpoints.push(cp);
        }
        assert!(!checkpoints.is_empty());
        assert_eq!(session.finish().unwrap().run.states, states);
        checkpoints
    }

    /// Restores checkpoint `at` of `cuts`, an uninterrupted run's, and steps
    /// it to the end. Every later cut must equal the uninterrupted run's at
    /// the same round, field for field: queue order and `seq_key` included.
    fn resume<P, F>(
        engine: &SimEngine<F>,
        g: &Graph,
        program: &P,
        cuts: &[SimCheckpoint<P::State, P::Msg>],
        at: usize,
    ) -> FaultedRun<P::State>
    where
        P: NodeProgram,
        P::State: Clone + std::fmt::Debug,
        P::Msg: std::fmt::Debug,
        F: FaultHook,
    {
        let mut sink = NullSink;
        let mut session = engine
            .open(g, program, Some(cuts[at].clone()), &mut sink)
            .unwrap();
        let mut later = cuts[at + 1..].iter();
        while let Some(round) = session.step().unwrap() {
            let cut = later.next().expect("the resumed run cuts no more often");
            assert_eq!(round, cut.round);
            assert_eq!(format!("{:?}", session.checkpoint()), format!("{cut:?}"));
        }
        assert!(later.next().is_none(), "the resumed run cut less often");
        session.finish().unwrap()
    }

    fn both_tie_breaks(latency: LatencyModel) -> [Simulator; 2] {
        [TieBreak::InsertionOrder, TieBreak::ReverseInsertion].map(|tie_break| {
            Simulator::new(SimConfig {
                tie_break,
                ..SimConfig::default().with_latency(latency.clone())
            })
        })
    }

    #[test]
    fn resume_from_any_checkpoint_matches_the_uninterrupted_run() {
        let g = generators::wheel(16);
        for latency in [
            LatencyModel::Fixed(1),
            LatencyModel::Uniform { lo: 1, hi: 7 },
            LatencyModel::HeavyTail {
                min: 1,
                alpha: 1.3,
                cap: 40,
            },
        ] {
            for sim in both_tie_breaks(latency) {
                let full = sim.run(&g, &Census).unwrap();
                let engine = SimEngine(sim, NoFaults);
                let cuts = checkpoint_every_step(&engine, &g, &Census, &full.states);
                for at in 0..cuts.len() {
                    let resumed = resume(&engine, &g, &Census, &cuts, at);
                    assert_eq!(resumed.outcome, FaultOutcome::Completed);
                    let resumed = resumed.run;
                    assert_eq!(resumed.states, full.states);
                    assert_eq!(resumed.rounds, full.rounds);
                    assert_eq!(resumed.messages, full.messages);
                    assert_eq!(resumed.makespan, full.makespan);
                    assert_eq!(resumed.completion, full.completion);
                    assert_eq!(resumed.stats.packets, full.stats.packets);
                    assert_eq!(resumed.stats.pure_pulses, full.stats.pure_pulses);
                    assert_eq!(resumed.stats.peak_in_flight, full.stats.peak_in_flight);
                    assert_eq!(
                        resumed.stats.edge_in_flight_peak,
                        full.stats.edge_in_flight_peak
                    );
                }
            }
        }

        // A session that blows the round budget is over, not broken: it
        // still finishes to the partial states, as `Wedged`; without faults
        // to blame, the one-shots call the same input an error.
        let sim = Simulator::new(SimConfig {
            max_rounds: 1,
            ..SimConfig::default()
        });
        let mut sink = NullSink;
        let mut session = sim.start(&g, &Census, &NoFaults, &mut sink).unwrap();
        assert_eq!(session.step(), Ok(None));
        let wedged = session.finish().unwrap();
        assert_eq!(wedged.outcome, FaultOutcome::Wedged { limit: 1 });
        assert_eq!(wedged.run.rounds, 1);
        assert!(wedged.run.states.iter().all(|&(_, heard)| heard == 0));
        let limit = RuntimeError::RoundLimit { limit: 1 };
        assert_eq!(sim.run(&g, &Census).unwrap_err(), limit);
        assert_eq!(sim.run_traced(&g, &Census, &mut sink).unwrap_err(), limit);
    }

    #[test]
    fn faulted_resume_replays_the_same_fate_sequence() {
        // Drops to odd vertices plus a crash: the checkpointed continuation
        // must reproduce losses, crash notices and partial states exactly.
        let g = generators::triangulated_grid(5, 5);
        let hook = TestHook {
            drop_to_odd: true,
            crashes: vec![(7, 2)],
            slip_all: 0,
        };
        for sim in both_tie_breaks(LatencyModel::Uniform { lo: 1, hi: 4 }) {
            let full = sim.run_with_faults(&g, &Census, &hook).unwrap();
            let engine = SimEngine(sim, hook.clone());
            let cuts = checkpoint_every_step(&engine, &g, &Census, &full.run.states);
            for at in 0..cuts.len() {
                let resumed = resume(&engine, &g, &Census, &cuts, at);
                assert_eq!(resumed.outcome, full.outcome);
                assert_eq!(resumed.crashed, full.crashed);
                assert_eq!(resumed.run.states, full.run.states);
                assert_eq!(resumed.run.rounds, full.run.rounds);
                assert_eq!(resumed.run.makespan, full.run.makespan);
                assert_eq!(
                    resumed.run.stats.lost_messages,
                    full.run.stats.lost_messages
                );
                assert_eq!(
                    resumed.run.stats.crash_notices,
                    full.run.stats.crash_notices
                );
                assert_eq!(
                    resumed.run.stats.dropped_packets,
                    full.run.stats.dropped_packets
                );
            }
        }
    }

    #[test]
    fn no_faults_hook_is_bit_identical_to_plain_run() {
        let g = generators::triangulated_grid(5, 5);
        let cfg = SimConfig::default().with_latency(LatencyModel::Uniform { lo: 1, hi: 4 });
        let plain = Simulator::new(cfg.clone()).run(&g, &Census).unwrap();
        let faulted = Simulator::new(cfg)
            .run_with_faults(&g, &Census, &NoFaults)
            .unwrap();
        assert_eq!(faulted.outcome, FaultOutcome::Completed);
        assert!(faulted.crashed.iter().all(|&c| !c));
        assert_eq!(plain.states, faulted.run.states);
        assert_eq!(plain.makespan, faulted.run.makespan);
        assert_eq!(plain.completion, faulted.run.completion);
        assert_eq!(plain.rounds, faulted.run.rounds);
        assert_eq!(plain.messages, faulted.run.messages);
        assert_eq!(plain.stats.packets, faulted.run.stats.packets);
        assert_eq!(faulted.run.stats.lost_messages, 0);
        assert_eq!(faulted.run.stats.crashed_vertices, 0);
    }

    #[test]
    fn dropped_messages_never_reach_the_inbox_but_are_still_metered() {
        let g = generators::cycle(8);
        let hook = TestHook {
            drop_to_odd: true,
            crashes: vec![],
            slip_all: 0,
        };
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &Census, &hook)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        // Senders paid for every message; odd receivers heard nothing.
        assert_eq!(run.run.messages, 2 * g.m() as u64);
        assert_eq!(run.run.stats.lost_messages, g.m() as u64);
        for (v, &(_, heard)) in run.run.states.iter().enumerate() {
            assert_eq!(heard, if v % 2 == 0 { 2 } else { 0 }, "vertex {v}");
        }
    }

    #[test]
    fn slipped_messages_arrive_in_a_later_round_or_go_stale() {
        /// Counts messages per round for four rounds; broadcasts once.
        struct SlowCensus;
        impl NodeProgram for SlowCensus {
            type State = Vec<u64>;
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx) -> Vec<u64> {
                Vec::new()
            }
            fn round(
                &self,
                ctx: &NodeCtx,
                state: &mut Vec<u64>,
                inbox: &[Envelope<u64>],
                out: &mut Outbox<'_, u64>,
            ) {
                state.push(inbox.len() as u64);
                if ctx.round == 1 {
                    out.broadcast(ctx.id as u64);
                }
            }
            fn halted(&self, ctx: &NodeCtx, _state: &Vec<u64>) -> bool {
                ctx.round >= 4
            }
        }
        let g = generators::cycle(6);
        let hook = TestHook {
            drop_to_odd: false,
            crashes: vec![],
            slip_all: 2,
        };
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &SlowCensus, &hook)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        // Round-1 messages slip from round 2 to round 4.
        for (v, counts) in run.run.states.iter().enumerate() {
            assert_eq!(counts, &vec![0, 0, 0, 2], "vertex {v}");
        }
        assert_eq!(run.run.stats.slipped_messages, 2 * g.m() as u64);
        assert_eq!(run.run.stats.slipped_delivered, 2 * g.m() as u64);
        assert_eq!(run.run.stats.stale_slipped, 0);
    }

    #[test]
    fn crashed_vertices_die_silently_and_neighbors_are_excused() {
        // Vertex 2 of a path crashes before round 2: it heartbeats once,
        // then vanishes; the others complete their three rounds.
        struct Heartbeat;
        impl NodeProgram for Heartbeat {
            type State = Vec<usize>; // ids heard per round, flattened
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx) -> Vec<usize> {
                Vec::new()
            }
            fn round(
                &self,
                _ctx: &NodeCtx,
                state: &mut Vec<usize>,
                inbox: &[Envelope<u64>],
                out: &mut Outbox<'_, u64>,
            ) {
                for env in inbox {
                    state.push(env.src);
                }
                out.broadcast(1);
            }
            fn halted(&self, ctx: &NodeCtx, _state: &Vec<usize>) -> bool {
                ctx.round >= 3
            }
        }
        let g = generators::path(5);
        let hook = TestHook {
            drop_to_odd: false,
            crashes: vec![(2, 2)],
            slip_all: 0,
        };
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &Heartbeat, &hook)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        assert_eq!(run.crashed, vec![false, false, true, false, false]);
        assert_eq!(run.survivors(), vec![0, 1, 3, 4]);
        assert_eq!(run.run.stats.crashed_vertices, 1);
        assert_eq!(run.run.stats.crash_notices, 2);
        // Vertex 1 heard its neighbors in round 2 (including 2's round-1
        // heartbeat) but only vertex 0 in round 3 — 2 died after one round.
        assert_eq!(run.run.states[1], vec![0, 2, 0]);
        assert_eq!(run.run.states[3], vec![2, 4, 4]);
        // The crashed vertex executed exactly one round — whose synchronous
        // inbox is empty by definition, so it heard nothing at all.
        assert_eq!(run.run.states[2], Vec::<usize>::new());
    }

    #[test]
    fn starved_runs_wedge_with_partial_states_instead_of_erroring() {
        // Every vertex waits for one message that the hook always drops.
        struct WaitForever;
        impl NodeProgram for WaitForever {
            type State = bool; // heard anything?
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx) -> bool {
                false
            }
            fn round(
                &self,
                ctx: &NodeCtx,
                state: &mut bool,
                inbox: &[Envelope<u64>],
                out: &mut Outbox<'_, u64>,
            ) {
                *state |= !inbox.is_empty();
                if ctx.round == 1 {
                    out.broadcast(7);
                }
            }
            fn halted(&self, _ctx: &NodeCtx, state: &bool) -> bool {
                *state
            }
        }
        struct DropAll;
        impl FaultHook for DropAll {
            fn message_fate(
                &self,
                _seed: u64,
                _src: usize,
                _dst: usize,
                _round: u64,
                _index: usize,
            ) -> MessageFate {
                MessageFate::Drop
            }
        }
        let g = generators::cycle(4);
        let sim = Simulator::new(SimConfig {
            max_rounds: 20,
            ..SimConfig::default()
        });
        let run = sim.run_with_faults(&g, &WaitForever, &DropAll).unwrap();
        assert_eq!(run.outcome, FaultOutcome::Wedged { limit: 20 });
        assert!(run.outcome.is_wedged());
        assert!(run.run.states.iter().all(|&heard| !heard));
        assert_eq!(run.run.stats.lost_messages, 2 * g.m() as u64);
        // Without the hook the very same program completes in two rounds —
        // the starvation really was the faults' doing.
        let clean = sim.run(&g, &WaitForever).unwrap();
        assert!(clean.states.iter().all(|&heard| heard));
    }
}
