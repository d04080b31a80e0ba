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
//! Events are packet arrivals, ordered by a binary heap keyed on
//! `(time, seq)`. All arrivals at one tick are buffered before any vertex
//! executes, so results do not depend on how equal-time events are ordered —
//! [`TieBreak`] exists to let tests *prove* that. Latencies are pure
//! functions of `(seed, edge, round)`, making whole runs bit-for-bit
//! reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mfd_congest::{Message, MeterParts, RoundMeter};
use mfd_graph::Graph;
use mfd_runtime::driver::{self, VertexRound};
use mfd_runtime::{
    Envelope, Execution, Executor, ExecutorConfig, NodeCtx, NodeProgram, RuntimeError, SendBuf,
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
    /// The heap ordering key as stored — already transformed per the run's
    /// [`TieBreak`], so a resume under the *same* tie-break replays the
    /// exact event order.
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

/// One vertex's synchronizer state in a [`SimCheckpoint`].
///
/// Map-shaped engine state is captured as sorted vectors so the same engine
/// state always encodes to the same bytes. The sorts are behaviorally inert:
/// pending-buffer senders are re-sorted at consumption anyway, late messages
/// replay in `(src, tag, idx)` order by construction, and the remaining keys
/// are looked up, never iterated.
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
    /// Buffered packets by tag (sorted by tag; per-tag senders sorted).
    pub pending: Vec<(u64, PendingBucket<M>)>,
    /// Slipped messages by target round (sorted by round; entries in the
    /// deterministic `(src, tag, idx)` replay order).
    pub late: Vec<(u64, Vec<LateEntry<M>>)>,
    /// Final tag per halted/crashed neighbor (sorted by neighbor).
    pub nbr_final_tag: Vec<(usize, u64)>,
}

/// The event engine's complete state between two timestamp batches, as plain
/// data.
///
/// Captured by [`SimSession::checkpoint`] and consumed by
/// [`Simulator::restore`]: the continued run is bit-identical to the
/// uninterrupted one, provided graph, program, configuration (including
/// [`TieBreak`]) and fault hook match. Fault-model memo state needs no
/// capture — every fate is a pure function of `(seed, edge, round, index)`,
/// so a restored run re-derives the same fate sequence.
///
/// A checkpoint is decoded from bytes, so `restore` treats it as outside
/// input and answers [`RuntimeError::CheckpointMismatch`] instead of
/// panicking: per-vertex lists that are not `n` long or per-edge lists that
/// are not `m` long, a `round` past the round budget, a queued packet or a
/// buffered sender that is not on an edge of the graph, and bookkeeping
/// (`in_flight`, `cur_in_flight`, `live`, `round_pop`, `frontier`) that
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
    /// In-flight packets, sorted by `(time, seq_key)` (heap order).
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

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `program` on every vertex of `g` until all vertices halt.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if the program violates the CONGEST model
    /// (non-edge send, or a reconstructed round over the bandwidth cap), and
    /// [`RuntimeError::RoundLimit`] if any vertex exceeds the round budget.
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
    /// has validated the round's sends).
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

    /// The run one consistent cut at a time: a [`SimSession`] held after
    /// tick 0 (states initialized, the initial configuration sealed as round
    /// 0, every live vertex's round 1 executed). Pass [`NoFaults`] for a
    /// clean network and [`NullSink`] for no observer; with an observer the
    /// session additionally emits one [`Event::FaultFate`] per message the
    /// hook touched and one [`Event::Crash`] per crash-stopped vertex.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] if round 1 already violates the CONGEST model.
    pub fn start<'a, P, F, O>(
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

    /// A [`SimSession`] continuing from `checkpoint`: the next tick picks up
    /// exactly where the captured run stopped, and the continued run is
    /// **bit-identical** to the uninterrupted one provided `g`, `program`,
    /// `hook` and this simulator's configuration (latency model, seed and
    /// [`TieBreak`] included) match the run that captured it. Fault fates are
    /// pure in `(seed, edge, round, index)`, so no fault-model state travels
    /// in the checkpoint. Round 0 is *not* re-sealed and already-sealed
    /// rounds are not replayed; to continue a digest chain, restore the
    /// sink's state alongside (`mfd_trace::DigestSink::restore`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] when the checkpoint does not fit
    /// `g` or the round budget (see [`SimCheckpoint`]) — it is decoded from
    /// bytes, so it is outside input and never a panic.
    pub fn restore<'a, P, F, O>(
        &'a self,
        g: &'a Graph,
        program: &'a P,
        hook: &'a F,
        checkpoint: SimCheckpoint<P::State, P::Msg>,
        observer: &'a mut O,
    ) -> Result<SimSession<'a, P, F, O>, RuntimeError>
    where
        P: NodeProgram,
        F: FaultHook,
        O: RunObserver<P::State>,
    {
        let engine = Engine::restored(g, program, &self.config, hook, observer, checkpoint)?;
        Ok(SimSession {
            engine,
            wedged: None,
        })
    }
}

/// A run held between two timestamp batches ([`Simulator::start`] /
/// [`Simulator::restore`]) — the event engine's counterpart of
/// `mfd_runtime::Session`, with the same four verbs.
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
    /// [`RuntimeError::Model`] on a CONGEST violation; it ends the session.
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

    /// The observer (a journal stamps checkpoints with its digest head).
    pub fn observer(&self) -> &O {
        self.engine.observer
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
    /// over; only [`Simulator::run`] and [`Simulator::run_traced`], with no
    /// faults to blame, turn it back into [`RuntimeError::RoundLimit`].
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

/// One synchronizer packet in flight.
struct Packet<M> {
    src: usize,
    dst: usize,
    /// The sender's local round when the packet was sent.
    tag: u64,
    /// Program messages for this edge, in send order, with word sizes and
    /// the rounds of extra lateness the fault hook imposed (0 = on time).
    payload: Vec<(M, usize, u64)>,
    /// Whether the sender halted after the tagged round (tag 0: at init).
    halt: bool,
    /// A failure-detector notification (crashed sender, no real packet):
    /// only excuses the receiver from waiting past the tag.
    notice: bool,
}

/// Buffered packets of one tag: per sender, its payload in send order.
type TaggedBuffer<M> = Vec<(usize, Vec<(M, usize)>)>;

/// A message the fault hook slipped to a later round, keyed for
/// deterministic replay: `(sender, original tag, send index, message)`.
type LateMsg<M> = (usize, u64, usize, M);

/// Per-vertex synchronizer state.
struct VertexSim<M> {
    halted: bool,
    /// Crash-stopped by the fault schedule (disjoint from `halted`).
    crashed: bool,
    /// The next local round this vertex will execute (starts at 1).
    next_round: u64,
    /// Simulated time of the most recent (eventually: final) execution.
    completion: u64,
    /// Buffered packets by tag: sender and payload, awaiting consumption at
    /// local round `tag + 1`.
    pending: HashMap<u64, TaggedBuffer<M>>,
    /// Messages the fault hook slipped, keyed by the local round whose inbox
    /// they will join (after that round's regular messages).
    late: HashMap<u64, Vec<LateMsg<M>>>,
    /// For each neighbor known to have halted: the last tag it sent.
    nbr_final_tag: HashMap<usize, u64>,
}

impl<M> VertexSim<M> {
    /// Halted or crashed: no longer scheduled, mail dropped on arrival.
    fn gone(&self) -> bool {
        self.halted || self.crashed
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
    n: usize,
    states: Vec<P::State>,
    vx: Vec<VertexSim<P::Msg>>,
    /// Min-heap of `(arrival time, seq, packet arena index)`. `seq` is
    /// unique per packet, so the arena index never decides ordering.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Packet arena; delivered slots are recycled through `free_slots`, so
    /// the arena stays at peak-in-flight size rather than growing with every
    /// packet ever sent.
    packets: Vec<Option<Packet<P::Msg>>>,
    free_slots: Vec<usize>,
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
    /// Live (non-halted) vertices per `next_round` value, maintained
    /// incrementally so the meter frontier needs no per-tick vertex scan.
    round_pop: HashMap<u64, usize>,
    /// Number of live vertices.
    live: usize,
    /// Smallest `next_round` among live vertices (`u64::MAX` once all have
    /// halted): every reconstructed round below it is final.
    frontier: u64,
    makespan: u64,
    edge_index: HashMap<(usize, usize), usize>,
    edges: Vec<(usize, usize)>,
    in_flight: Vec<usize>,
    edge_peak: Vec<usize>,
    cur_in_flight: usize,
    stats: SimStats,
}

fn ekey(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
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
        let mut edge_index = HashMap::new();
        let mut edges = Vec::with_capacity(g.m());
        for (u, v) in g.edges() {
            edge_index.insert(ekey(u, v), edges.len());
            edges.push(ekey(u, v));
        }
        let m = edges.len();
        Engine {
            g,
            program,
            config,
            hook,
            observer,
            max_rounds: config
                .max_rounds
                .min(program.round_budget_hint().unwrap_or(u64::MAX)),
            n: g.n(),
            states: Vec::new(),
            vx: Vec::new(),
            heap: BinaryHeap::new(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            per_round: Vec::new(),
            submitted: 0,
            meter: RoundMeter::with_capacity(config.capacity_words),
            round_pop: HashMap::new(),
            live: 0,
            frontier: u64::MAX,
            makespan: 0,
            edge_index,
            edges,
            in_flight: vec![0; m],
            edge_peak: vec![0; m],
            cur_in_flight: 0,
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
        let (n, seed) = (engine.n, config.seed);
        let ctx = |v| NodeCtx::new(v, n, 0, g.neighbors(v), seed);
        let states: Vec<P::State> = (0..n).map(|v| program.init(&ctx(v))).collect();
        let vx: Vec<VertexSim<P::Msg>> = (0..n)
            .map(|v| VertexSim {
                halted: program.halted(&ctx(v), &states[v]),
                crashed: false,
                next_round: 1,
                completion: 0,
                pending: HashMap::new(),
                late: HashMap::new(),
                nbr_final_tag: HashMap::new(),
            })
            .collect();
        (engine.states, engine.vx) = (states, vx);
        engine.live = engine.vx.iter().filter(|x| !x.halted).count();
        if engine.live > 0 {
            engine.round_pop.insert(1, engine.live);
            engine.frontier = 1;
        }
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
        for v in 0..self.n {
            if self.vx[v].halted {
                let g = self.g;
                for &u in g.neighbors(v) {
                    self.send_packet(
                        Packet {
                            src: v,
                            dst: u,
                            tag: 0,
                            payload: Vec::new(),
                            halt: true,
                            notice: false,
                        },
                        0,
                    );
                }
            }
        }
        for v in 0..self.n {
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
    /// or pending) guarantees that only happens once every vertex has halted.
    fn tick(&mut self) -> Result<bool, RuntimeError> {
        let Some(&Reverse((now, _, _))) = self.heap.peek() else {
            debug_assert!(
                self.vx.iter().all(VertexSim::gone),
                "event queue drained with live vertices — synchronizer invariant broken"
            );
            return Ok(false);
        };
        let mut touched: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, _, idx))) = self.heap.peek() {
            if t != now {
                break;
            }
            self.heap.pop();
            let packet = self.packets[idx].take().expect("packet delivered twice");
            self.free_slots.push(idx);
            self.arrive(packet, &mut touched);
        }
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

    /// Captures the engine's complete state (valid only between ticks).
    fn checkpoint(&self) -> SimCheckpoint<P::State, P::Msg>
    where
        P::State: Clone,
    {
        let vx = self
            .vx
            .iter()
            .map(|x| {
                let mut pending: Vec<(u64, TaggedBuffer<P::Msg>)> = x
                    .pending
                    .iter()
                    .map(|(&tag, buf)| {
                        let mut buf = buf.clone();
                        buf.sort_unstable_by_key(|&(src, _)| src);
                        (tag, buf)
                    })
                    .collect();
                pending.sort_unstable_by_key(|&(tag, _)| tag);
                let mut late: Vec<(u64, Vec<LateMsg<P::Msg>>)> = x
                    .late
                    .iter()
                    .map(|(&round, msgs)| {
                        let mut msgs = msgs.clone();
                        msgs.sort_unstable_by_key(|&(src, tag, idx, _)| (src, tag, idx));
                        (round, msgs)
                    })
                    .collect();
                late.sort_unstable_by_key(|&(round, _)| round);
                let mut nbr_final_tag: Vec<(usize, u64)> =
                    x.nbr_final_tag.iter().map(|(&u, &t)| (u, t)).collect();
                nbr_final_tag.sort_unstable();
                VertexCheckpoint {
                    halted: x.halted,
                    crashed: x.crashed,
                    next_round: x.next_round,
                    completion: x.completion,
                    pending,
                    late,
                    nbr_final_tag,
                }
            })
            .collect();
        let mut entries: Vec<(u64, u64, usize)> =
            self.heap.iter().map(|&Reverse(entry)| entry).collect();
        entries.sort_unstable();
        let queue = entries
            .into_iter()
            .map(|(time, seq_key, idx)| {
                let p = self.packets[idx].as_ref().expect("heap slot vacated");
                PacketCheckpoint {
                    time,
                    seq_key,
                    src: p.src,
                    dst: p.dst,
                    tag: p.tag,
                    payload: p.payload.clone(),
                    halt: p.halt,
                    notice: p.notice,
                }
            })
            .collect();
        let mut round_pop: Vec<(u64, usize)> =
            self.round_pop.iter().map(|(&r, &pop)| (r, pop)).collect();
        round_pop.sort_unstable();
        SimCheckpoint {
            round: self.submitted as u64,
            states: self.states.clone(),
            vx,
            queue,
            seq: self.seq,
            pending_rounds: self.per_round[self.submitted..].to_vec(),
            meter: self.meter.to_parts(),
            round_pop,
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
    /// budget: every index the engine will follow, and every counter it
    /// derives from the vertex and packet lists and then trusts.
    fn restored(
        g: &'a Graph,
        program: &'a P,
        config: &'a SimConfig,
        hook: &'a F,
        observer: &'a mut O,
        cp: SimCheckpoint<P::State, P::Msg>,
    ) -> Result<Self, RuntimeError> {
        let mut engine = Self::assemble(g, program, config, hook, observer);
        let (n, m) = (engine.n, engine.edges.len());
        let mismatch = |what, expected: u64, found: u64| RuntimeError::CheckpointMismatch {
            what,
            expected,
            found,
        };
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
        if cp.round > engine.max_rounds {
            let what = "round exceeds the round budget";
            return Err(mismatch(what, engine.max_rounds, cp.round));
        }
        let edge_of = |src: usize, dst: usize| {
            let what = "traffic to vertex `expected` from non-neighbour `found`";
            let edge = engine.edge_index.get(&ekey(src, dst));
            edge.copied().ok_or(mismatch(what, dst as u64, src as u64))
        };
        let mut round_pop: HashMap<u64, usize> = HashMap::new();
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
            if !(x.halted || x.crashed) {
                if x.next_round == 0 {
                    return Err(mismatch("a live vertex's next round", 1, 0));
                }
                *round_pop.entry(x.next_round).or_insert(0) += 1;
            }
        }
        let mut in_flight = vec![0; m];
        for p in &cp.queue {
            let e = edge_of(p.src, p.dst)?;
            in_flight[e] += usize::from(!p.notice);
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
        let live: usize = round_pop.values().sum();
        let frontier = round_pop.keys().copied().min().unwrap_or(u64::MAX);
        if (cp.live, cp.frontier) != (live, frontier)
            || round_pop != cp.round_pop.into_iter().collect()
        {
            let what = "live vertices, or the rounds they are in";
            return Err(mismatch(what, live as u64, cp.live as u64));
        }

        engine.vx = cp
            .vx
            .into_iter()
            .map(|x| VertexSim {
                halted: x.halted,
                crashed: x.crashed,
                next_round: x.next_round,
                completion: x.completion,
                pending: x.pending.into_iter().collect(),
                late: x.late.into_iter().collect(),
                nbr_final_tag: x.nbr_final_tag.into_iter().collect(),
            })
            .collect();
        for p in cp.queue {
            let slot = engine.packets.len();
            engine.heap.push(Reverse((p.time, p.seq_key, slot)));
            engine.packets.push(Some(Packet {
                src: p.src,
                dst: p.dst,
                tag: p.tag,
                payload: p.payload,
                halt: p.halt,
                notice: p.notice,
            }));
        }
        engine.submitted = cp.round as usize;
        engine.per_round.resize_with(engine.submitted, Vec::new);
        engine.per_round.extend(cp.pending_rounds);
        engine.states = cp.states;
        engine.seq = cp.seq;
        engine.meter = RoundMeter::from_parts(cp.meter);
        (engine.round_pop, engine.live, engine.frontier) = (round_pop, live, frontier);
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
            self.seal_submitted_round();
        }
        Ok(())
    }

    /// Observer bookkeeping for the most recently metered round: its message
    /// bucket is final, so its digests can be folded.
    fn seal_submitted_round(&mut self) {
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

    fn finish(mut self, outcome: FaultOutcome) -> Result<FaultedRun<P::State>, RuntimeError> {
        // Flush the rounds still unsubmitted when the last vertices halted.
        for i in self.submitted..self.per_round.len() {
            let msgs = std::mem::take(&mut self.per_round[i]);
            self.meter
                .round(self.g, &msgs)
                .map_err(RuntimeError::Model)?;
            self.submitted = i + 1;
            self.seal_submitted_round();
        }
        let meter = self.meter;
        self.stats.payload_messages = meter.messages();
        // Slipped messages whose target round never executed (the receiver
        // halted, crashed or starved first) are stale: sent, never read.
        self.stats.stale_slipped += self
            .vx
            .iter()
            .flat_map(|x| x.late.values())
            .map(|msgs| msgs.len() as u64)
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

    fn arrive(&mut self, packet: Packet<P::Msg>, touched: &mut Vec<usize>) {
        if packet.notice {
            // Failure-detector verdict: stop waiting for the crashed sender
            // past its final executed round. Not a network packet — no
            // congestion accounting, nothing enters any inbox.
            if !self.vx[packet.dst].gone() {
                self.vx[packet.dst]
                    .nbr_final_tag
                    .insert(packet.src, packet.tag);
                touched.push(packet.dst);
            }
            return;
        }
        let e = self.edge_index[&ekey(packet.src, packet.dst)];
        self.in_flight[e] -= 1;
        self.cur_in_flight -= 1;
        if packet.halt {
            self.vx[packet.dst]
                .nbr_final_tag
                .insert(packet.src, packet.tag);
        }
        if self.vx[packet.dst].gone() {
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
            // Split the payload: on-time messages join the tag's synchronous
            // inbox; slipped ones wait for their later target round. The
            // packet itself is always registered — the skeleton is the ready
            // pulse the synchronizer counts, faults only touch the payload.
            let mut on_time = Vec::with_capacity(packet.payload.len());
            for (idx, (msg, words, slip)) in packet.payload.into_iter().enumerate() {
                if slip == 0 {
                    on_time.push((msg, words));
                } else {
                    self.vx[packet.dst]
                        .late
                        .entry(packet.tag + 1 + slip)
                        .or_default()
                        .push((packet.src, packet.tag, idx, msg));
                }
            }
            self.vx[packet.dst]
                .pending
                .entry(packet.tag)
                .or_default()
                .push((packet.src, on_time));
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
                    self.crash(v, now);
                    return Ok(());
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
    fn crash(&mut self, v: usize, now: u64) {
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
        self.leave_round(v, r, true);
        let delay = self.hook.detection_delay().max(1);
        let g = self.g;
        for &u in g.neighbors(v) {
            self.stats.crash_notices += 1;
            self.enqueue(
                Packet {
                    src: v,
                    dst: u,
                    tag: r - 1,
                    payload: Vec::new(),
                    halt: false,
                    notice: true,
                },
                now + delay,
            );
        }
    }

    /// Frontier bookkeeping for a vertex leaving round `r`'s live population,
    /// either for round `r + 1` or (halt/crash) for good. The frontier only
    /// ever advances, so the catch-up walk is amortized over the whole run.
    fn leave_round(&mut self, _v: usize, r: u64, gone: bool) {
        if let Some(pop) = self.round_pop.get_mut(&r) {
            *pop -= 1;
            if *pop == 0 {
                self.round_pop.remove(&r);
            }
        }
        if gone {
            self.live -= 1;
        } else {
            *self.round_pop.entry(r + 1).or_insert(0) += 1;
        }
        if self.live == 0 {
            self.frontier = u64::MAX;
        } else {
            while !self.round_pop.contains_key(&self.frontier) {
                self.frontier += 1;
            }
        }
    }

    /// Whether `v` holds everything its next local round needs: a packet
    /// tagged `next_round - 1` from every neighbor still live at that round
    /// (round 1 needs nothing — its synchronous inbox is empty).
    ///
    /// Counting suffices: every vertex sends exactly one packet per tag, so
    /// `pending[need].len()` is the number of distinct neighbors heard from,
    /// and a neighbor whose final tag is below `need` never sent one — the
    /// two sets are disjoint and must jointly cover the neighborhood.
    fn ready(&self, v: usize) -> bool {
        let r = self.vx[v].next_round;
        if r == 1 {
            return true;
        }
        let need = r - 1;
        let vx = &self.vx[v];
        let heard = vx.pending.get(&need).map_or(0, Vec::len);
        let excused = vx
            .nbr_final_tag
            .values()
            .filter(|&&last| last < need)
            .count();
        heard + excused == self.g.degree(v)
    }

    fn execute_round(&mut self, v: usize, now: u64) -> Result<(), RuntimeError> {
        let r = self.vx[v].next_round;
        if r > self.max_rounds {
            return Err(RuntimeError::RoundLimit {
                limit: self.max_rounds,
            });
        }
        // The synchronous inbox for round r: tag r-1 payloads, flattened in
        // increasing sender order (the synchronous executor's commit order).
        let mut buffered = self.vx[v].pending.remove(&(r - 1)).unwrap_or_default();
        buffered.sort_unstable_by_key(|&(src, _)| src);
        let mut inbox: Vec<Envelope<P::Msg>> = buffered
            .into_iter()
            .flat_map(|(src, payload)| {
                payload
                    .into_iter()
                    .map(move |(msg, _words)| Envelope { src, msg })
            })
            .collect();
        // Messages the fault hook slipped to this round join after the
        // regular, sender-sorted ones, in a deterministic replay order
        // (sender, original round, send index) that no event-queue
        // tie-breaking can perturb.
        if let Some(mut late) = self.vx[v].late.remove(&r) {
            late.sort_unstable_by_key(|&(src, tag, idx, _)| (src, tag, idx));
            self.stats.slipped_delivered += late.len() as u64;
            inbox.extend(
                late.into_iter()
                    .map(|(src, _, _, msg)| Envelope { src, msg }),
            );
        }

        let ctx = NodeCtx::new(v, self.n, r, self.g.neighbors(v), self.config.seed);
        let out: VertexRound<P::Msg> = driver::step_vertex(
            self.program,
            &ctx,
            &mut self.states[v],
            &inbox,
            SendBuf::new(),
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

        // Group this round's sends by destination, preserving send order,
        // with the fault hook ruling on every message *after* it was metered
        // (the sender pays for lost messages; only delivery changes). The
        // per-edge send index keys the hook's random stream.
        let mut by_nbr: HashMap<usize, Vec<(P::Msg, usize, u64)>> = HashMap::new();
        let mut sent_to: HashMap<usize, usize> = HashMap::new();
        let seed = self.config.seed;
        for (dst, msg, words) in out.sends.msgs {
            let counter = sent_to.entry(dst).or_insert(0);
            let index = *counter;
            *counter += 1;
            let entry = by_nbr.entry(dst).or_default();
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

        self.vx[v].halted = out.halted;
        self.vx[v].next_round = r + 1;
        self.vx[v].completion = now;
        self.leave_round(v, r, out.halted);

        // The synchronizer pulse: one packet per neighbor, tagged with this
        // round, carrying the payload for that edge and the halt flag.
        let g = self.g;
        for &u in g.neighbors(v) {
            let payload = by_nbr.remove(&u).unwrap_or_default();
            self.send_packet(
                Packet {
                    src: v,
                    dst: u,
                    tag: r,
                    payload,
                    halt: out.halted,
                    notice: false,
                },
                now,
            );
        }
        Ok(())
    }

    fn send_packet(&mut self, packet: Packet<P::Msg>, now: u64) {
        let delay = self
            .config
            .latency
            .sample(self.config.seed, packet.src, packet.dst, packet.tag)
            .max(1);
        if O::ENABLED {
            self.observer.event(&Event::Pulse {
                time: now,
                src: packet.src,
                dst: packet.dst,
                payload: packet.payload.len(),
                halt: packet.halt,
            });
        }
        self.stats.packets += 1;
        if packet.payload.is_empty() {
            self.stats.pure_pulses += 1;
        } else {
            self.stats.payload_packets += 1;
        }
        let e = self.edge_index[&ekey(packet.src, packet.dst)];
        self.in_flight[e] += 1;
        self.cur_in_flight += 1;
        // Arrivals of a tick are processed before its sends, so these peaks
        // are independent of equal-time event ordering.
        self.edge_peak[e] = self.edge_peak[e].max(self.in_flight[e]);
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.cur_in_flight);
        self.enqueue(packet, now + delay);
    }

    /// Schedules `packet` for arrival at `when` (no latency sampling, no
    /// congestion accounting — [`Engine::send_packet`] layers those on top;
    /// crash notices use this directly).
    fn enqueue(&mut self, packet: Packet<P::Msg>, when: u64) {
        let seq = match self.config.tie_break {
            TieBreak::InsertionOrder => self.seq,
            TieBreak::ReverseInsertion => u64::MAX - self.seq,
        };
        self.seq += 1;
        let idx = match self.free_slots.pop() {
            Some(slot) => {
                self.packets[slot] = Some(packet);
                slot
            }
            None => {
                self.packets.push(Some(packet));
                self.packets.len() - 1
            }
        };
        self.heap.push(Reverse((when, seq, idx)));
    }
}

/// The paired results of a synchronous execution and a simulation of the
/// same program: `(executor run, simulator run)`.
pub type EnginePair<S> = (Execution<S>, SimExecution<S>);

/// Runs `program` under both engines — the synchronous [`Executor`] and this
/// crate's [`Simulator`] with the given latency model — from one shared
/// configuration, so the pair is directly comparable (identical seeds, round
/// budgets and bandwidth caps).
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
pub fn run_both<P: NodeProgram>(
    g: &Graph,
    program: &P,
    exec_config: &ExecutorConfig,
    latency: LatencyModel,
) -> Result<EnginePair<P::State>, RuntimeError> {
    let sync = Executor::new(exec_config.clone()).run(g, program)?;
    let sim = Simulator::new(SimConfig::matching(exec_config, latency)).run(g, program)?;
    Ok((sync, sim))
}

#[cfg(test)]
mod tests {
    use super::*;
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
                if ctx.id == 0 {
                    out.send(1, 1);
                    out.send(1, 2);
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
        assert!(matches!(err, RuntimeError::Model(_)), "{err}");
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
        let mut w = WeightedGraph::new(3);
        w.add_weight(0, 1, 10);
        w.add_weight(1, 2, 1);
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
    /// stepped run must itself end in `states`.
    fn checkpoint_every_step<P, F>(
        sim: &Simulator,
        g: &Graph,
        program: &P,
        hook: &F,
        states: &[P::State],
    ) -> Vec<SimCheckpoint<P::State, P::Msg>>
    where
        P: NodeProgram,
        P::State: Clone + PartialEq + std::fmt::Debug,
        F: FaultHook,
    {
        let mut sink = NullSink;
        let mut session = sim.start(g, program, hook, &mut sink).unwrap();
        let mut checkpoints = Vec::new();
        while let Some(round) = session.step().unwrap() {
            let cp = session.checkpoint();
            assert_eq!(cp.round, round);
            checkpoints.push(cp);
        }
        assert!(!checkpoints.is_empty());
        assert_eq!(session.finish().unwrap().run.states, states);
        checkpoints
    }

    /// Restores `checkpoint` and steps it to the end.
    fn resume<P: NodeProgram, F: FaultHook>(
        sim: &Simulator,
        g: &Graph,
        program: &P,
        hook: &F,
        checkpoint: SimCheckpoint<P::State, P::Msg>,
    ) -> FaultedRun<P::State> {
        let mut sink = NullSink;
        let mut session = sim
            .restore(g, program, hook, checkpoint, &mut sink)
            .unwrap();
        while session.step().unwrap().is_some() {}
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
                for cp in checkpoint_every_step(&sim, &g, &Census, &NoFaults, &full.states) {
                    let resumed = resume(&sim, &g, &Census, &NoFaults, cp);
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
            for cp in checkpoint_every_step(&sim, &g, &Census, &hook, &full.run.states) {
                let resumed = resume(&sim, &g, &Census, &hook, cp);
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
