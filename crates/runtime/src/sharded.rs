//! The sharded CSR executor: the production engine for the round-synchronous
//! CONGEST semantics — the ones the reference stepper [`crate::Executor`]
//! spells out plainly — structured for million-vertex graphs.
//!
//! # Architecture
//!
//! Vertices are partitioned into `shards` contiguous ranges. Each shard owns
//! its slice of every per-vertex array — states, halted flags, mailboxes — so
//! the per-round sweep is a rayon-parallel pass over shards with no shared
//! mutable state. A shard's mailboxes are **one flat arena**: a single
//! `Vec<Envelope>` of everything readable this round, grouped by destination,
//! plus a `(start, len)` span per local vertex; an inbox is a slice of it.
//!
//! Outgoing sends are routed exchange-style: the sweep pushes each send, as one
//! [`Envelope`] whose `src` carries the shard-local destination in its high
//! half, into a bucket per destination shard and notes which buckets it
//! pushed into. The **exchange is sparse** — only those buckets change hands,
//! so a round costs nothing for the shard pairs that did not talk. Delivery
//! counts the envelopes addressed to a shard per destination, gives every
//! destination a contiguous range of the arena and puts each envelope in its
//! range with `src` unpacked: two or more buckets are *scattered*, straight
//! from the buckets in ascending source-shard order; a lone bucket (every
//! round of a one-shard run) is adopted and permuted in place (the sweep has
//! finished reading the old mail, so neither needs a second buffer). Because
//! shards are ascending vertex ranges and every shard commits its vertices in
//! ascending order, each mailbox holds its messages in ascending sender
//! order, one sender's in send order — exactly the inbox ordering the
//! reference stepper's sequential commit produces. Arena, bucket and send
//! `Vec`s are pooled across rounds (cleared, never dropped) and nothing is
//! allocated per vertex, so a steady-state round allocates nothing;
//! [`ArenaStats`] reports the pools' high-water marks as a peak-memory proxy
//! (bytes per vertex and per resident message: docs/ARCHITECTURE.md). Spans
//! and packed destinations are `u32`: a layout that could overflow them is
//! refused with a panic before anything runs (see [`ShardedExecutor::run`]).
//!
//! # Scheduling: a round costs O(frontier + messages)
//!
//! A round schedules exactly the vertices the reference stepper does — every
//! live vertex that has mail or is not [`NodeProgram::quiescent`] — but never
//! visits the rest to find them. Each shard keeps a **wake set** (one bit per
//! local vertex) that is written only where the work already happens: the
//! sweep sets a vertex's bit right after stepping it iff it is neither halted
//! nor quiescent at the next round, and delivery sets the bit of every live
//! vertex on the first envelope pushed into its mailbox. The scan phase just
//! drains the words in order (ascending vertex order for free) and calls no
//! program code. Delivery likewise remembers which spans it filled and
//! resets only those next round; and the run is over when the drained wake
//! sets are all empty, which covers "every vertex has halted" because only
//! live vertices are ever woken. What remains per round is one pass over
//! `n / 64` words.
//!
//! The wake set is exact because a vertex's state changes only when it is
//! stepped, and `quiescent`'s contract makes its answer for an unstepped
//! vertex independent of the round. Debug builds check this instead of
//! trusting it: every shard recomputes the full-scan predicate each round and
//! asserts it equal to the drained wake set.
//!
//! # Determinism
//!
//! Bit-identical to [`crate::Executor`] across shard counts and thread
//! counts: states, meters, and digest chains all match (differentially
//! tested on the acceptance families, and asserted in-process by the `scale`
//! benchmark section). Per-vertex randomness is stateless in
//! `(seed, vertex, round)`; observer hooks fire only at sequential points
//! between parallel passes; model violations are resolved in vertex order.
//! Events are tagged [`EngineKind::Executor`] — the kind names the
//! synchronous round semantics, not an implementation, so this engine's
//! digest chains are directly comparable with the reference stepper's.
//!
//! The CONGEST model is enforced exactly as in the reference stepper:
//! non-edge sends are caught at send time by the [`crate::Outbox`]'s binary
//! search over the sorted CSR neighbor slice, and per-directed-edge
//! bandwidth is accounted shard-locally at commit time (each directed edge
//! has a unique source vertex, so per-source accounting covers every edge
//! exactly once) and folded into the same [`RoundMeter`] totals.
//!
//! # Checkpoints
//!
//! A [`Session`] ([`SessionEngine::open`] with no checkpoint) advances one
//! sealed round per [`Session::step`] and can be captured at any round
//! boundary. The capture, [`ExecCheckpoint`], is
//! **representation-independent**: states and halted
//! flags in vertex order, the readable mailboxes per vertex in ascending
//! sender order (mail resident at halted vertices included), the meter's
//! parts and the round — nothing about shards, threads or pooled buffers,
//! and no RNG position (streams are re-derived from `(seed, vertex, round)`)
//! — so it restores under any layout and its `mfd-replay` bytes are stable.
//!
//! [`SessionEngine::open`] from a checkpoint splits it back into shards and
//! rebuilds what is derived: the arena and its spans, and the wake set —
//! recomputable because it
//! is *defined* by the full-scan predicate (live, and holding mail or not
//! quiescent at the next round) that debug builds assert it equal to every
//! round. A checkpoint is decoded from bytes, so it is outside input: wrong
//! lengths, mail from a non-neighbour or a round past the budget are a
//! [`RuntimeError::CheckpointMismatch`], never a panic. The round budget
//! counts total rounds, not rounds since the resume.

use std::time::Instant;

use mfd_congest::{CongestError, MeterParts, RoundMeter};
use mfd_graph::Graph;
use mfd_trace::{EngineKind, Event, NullSink, RunObserver};
use rayon::prelude::*;

use crate::driver;
use crate::executor::{ExecutorConfig, RuntimeError};
use crate::profile::{
    Profiler, RoundSample, PHASE_COMMIT, PHASE_DELIVER, PHASE_EXCHANGE, PHASE_ROUTE, PHASE_SCAN,
    PHASE_STEP,
};
use crate::program::{Envelope, NodeCtx, NodeProgram, SendBuf};
use crate::session::{check_fits, SessionEngine};

/// Configuration for a [`ShardedExecutor`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Contiguous vertex shards (clamped to at least 1). More shards expose
    /// more parallelism to the sweep; the outputs are shard-count-invariant.
    pub shards: usize,
    /// Worker threads for the per-round shard sweep (0 = all available).
    pub threads: usize,
    /// Upper bound on executed rounds, as in [`ExecutorConfig::max_rounds`].
    pub max_rounds: u64,
    /// Per-edge, per-direction bandwidth in 64-bit words per round.
    pub capacity_words: usize,
    /// Seed for the deterministic per-vertex RNG streams.
    pub seed: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        let exec = ExecutorConfig::default();
        ShardedConfig {
            shards: 8,
            threads: 0,
            max_rounds: exec.max_rounds,
            capacity_words: exec.capacity_words,
            seed: exec.seed,
        }
    }
}

impl ShardedConfig {
    /// A sharded config running the same model parameters (budget, capacity,
    /// seed) as an unsharded [`ExecutorConfig`] — the differential-testing
    /// constructor: two engines configured this way must produce identical
    /// runs.
    pub fn matching(exec: &ExecutorConfig, shards: usize) -> Self {
        ShardedConfig {
            shards,
            threads: exec.threads,
            max_rounds: exec.max_rounds,
            capacity_words: exec.capacity_words,
            seed: exec.seed,
        }
    }

    /// [`ShardedConfig::matching`] with one shard per worker thread
    /// (`exec.threads`, or every available thread when that is 0): the
    /// layout under which this engine stands in for an [`crate::Executor`]
    /// built from `exec` — a single shard, and no parallel pass at all, on
    /// one thread.
    pub fn per_thread(exec: &ExecutorConfig) -> Self {
        let shards = if exec.threads > 0 {
            exec.threads
        } else {
            rayon::current_num_threads()
        };
        Self::matching(exec, shards)
    }

    /// Config with explicit shard and thread counts, defaults elsewhere.
    pub fn with_shards_threads(shards: usize, threads: usize) -> Self {
        ShardedConfig {
            shards,
            threads,
            ..Self::default()
        }
    }
}

/// High-water marks of the executor's pooled buffers: a deterministic peak
/// memory proxy (counts of live [`Envelope`] slots, not bytes). A restored
/// [`Session`]'s marks cover the checkpoint's resident mail and the rounds
/// since the restore, not the rounds before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Peak envelopes resident in the mailbox arenas after any round's
    /// delivery.
    pub mailbox_slots_hwm: usize,
    /// Peak envelopes staged in the exchange route buckets after any round's
    /// sweep: the most messages any one round sent.
    pub route_slots_hwm: usize,
}

/// The complete loop state at a round boundary, as plain data in vertex
/// order (module docs, "Checkpoints"): captured by [`Session::checkpoint`],
/// consumed by [`SessionEngine::open`], encoded by `mfd-replay`.
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
    /// ascending sender order.
    pub inbox: Vec<Vec<Envelope<M>>>,
    /// The meter's accumulator state, including open phases.
    pub meter: MeterParts,
}

/// Result of a completed sharded execution.
#[derive(Debug)]
pub struct ShardedExecution<S> {
    /// Final state of every vertex, in vertex order.
    pub states: Vec<S>,
    /// The meter that accounted every executed round.
    pub meter: RoundMeter,
    /// Rounds executed (equals `meter.rounds()`).
    pub rounds: u64,
    /// Messages delivered (equals `meter.messages()`).
    pub messages: u64,
    /// Pooled-buffer high-water marks (peak memory proxy).
    pub arena: ArenaStats,
}

/// The sharded, CSR-native, round-synchronous CONGEST engine (see the
/// module docs for the architecture and determinism argument).
#[derive(Debug, Default)]
pub struct ShardedExecutor {
    config: ShardedConfig,
    pool: Option<rayon::ThreadPool>,
}

impl ShardedExecutor {
    /// Creates an executor from a configuration.
    pub fn new(config: ShardedConfig) -> Self {
        let pool = (config.threads > 0).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(config.threads)
                .build()
                .expect("thread pool construction cannot fail")
        });
        ShardedExecutor { config, pool }
    }

    /// Runs `program` on every vertex of `g` until all vertices halt.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] on a CONGEST violation,
    /// [`RuntimeError::RoundLimit`] past the round budget.
    ///
    /// # Panics
    ///
    /// Like every entry point, before anything runs, if a shard's vertices, or
    /// its incoming half-edges × `capacity_words` (the mail one round can make
    /// resident in it), exceed the engine's `u32` mailbox indices.
    pub fn run<P: NodeProgram>(
        &self,
        g: &Graph,
        program: &P,
    ) -> Result<ShardedExecution<P::State>, RuntimeError> {
        self.run_traced(g, program, &mut NullSink)
    }

    /// [`ShardedExecutor::run`] with an observer receiving round/vertex
    /// events and per-round state digests (see `mfd-trace`) — the same
    /// stream, seal points and digest chain as [`crate::Executor::run_traced`].
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardedExecutor::run`].
    pub fn run_traced<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
    ) -> Result<ShardedExecution<P::State>, RuntimeError> {
        self.run_with(g, program, observer, None)
    }

    /// [`ShardedExecutor::run_traced`] with a wall-clock [`Profiler`]
    /// attached.
    ///
    /// The profiler receives per-round phase timings, per-shard busy times,
    /// the shard→shard traffic matrix, and the per-shard frontier/arena
    /// series (see [`RoundSample`]) — all without perturbing the run: every
    /// structural field is copied at the sequential points where observer
    /// hooks already fire, and wall clocks are read around the deterministic
    /// work, never inside it, so a profiled run is bit-identical to an
    /// unprofiled one (states, meter, digest chain).
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardedExecutor::run`].
    pub fn run_profiled<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
        profiler: &mut dyn Profiler,
    ) -> Result<ShardedExecution<P::State>, RuntimeError> {
        self.run_with(g, program, observer, Some(profiler))
    }

    fn run_with<'a, P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        profiler: Option<&'a mut dyn Profiler>,
    ) -> Result<ShardedExecution<P::State>, RuntimeError> {
        self.install(|| {
            let mut engine = ShardedEngine::fresh(&self.config, g, program, observer, profiler);
            engine.drive()?;
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

/// A run held at a round boundary ([`SessionEngine::open`]): journaling,
/// time travel and kill-and-resume compose from its four methods.
pub struct Session<'a, P: NodeProgram, O> {
    exec: &'a ShardedExecutor,
    engine: ShardedEngine<'a, P, O>,
}

impl<P: NodeProgram, O: RunObserver<P::State>> Session<'_, P, O> {
    /// Executes one round inside the executor's pool and returns its number,
    /// or `None` once the run is over. An error ends the session.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardedExecutor::run`].
    pub fn step(&mut self) -> Result<Option<u64>, RuntimeError> {
        let sealed = self.exec.install(|| self.engine.step())?;
        Ok(sealed.then_some(self.engine.round))
    }

    /// The complete loop state after the last sealed round.
    pub fn checkpoint(&self) -> ExecCheckpoint<P::State, P::Msg>
    where
        P::State: Clone,
    {
        let shards = &self.engine.shards;
        ExecCheckpoint {
            round: self.engine.round,
            states: shards.iter().flat_map(|s| &s.states).cloned().collect(),
            halted: shards.iter().flat_map(|s| &s.halted).copied().collect(),
            inbox: shards
                .iter()
                .flat_map(|s| (0..s.end - s.start).map(|local| s.mail(local).to_vec()))
                .collect(),
            meter: self.engine.meter.to_parts(),
        }
    }

    /// The observer (a journal stamps checkpoints with its digest head).
    pub fn observer(&self) -> &O {
        self.engine.observer
    }

    /// Ends the session and returns the run as it stands.
    pub fn finish(self) -> ShardedExecution<P::State> {
        self.engine.finish()
    }
}

/// [`ShardedExecutor::run_traced`] one round at a time. A fresh session is
/// held at round 0 (states initialized, initial configuration sealed); a
/// restored one next executes round `checkpoint.round + 1`, with
/// [`ArenaStats`] starting from the checkpoint's resident mail.
impl<P: NodeProgram> SessionEngine<P> for ShardedExecutor {
    const KIND: EngineKind = EngineKind::Executor;
    type Session<'a, O: RunObserver<P::State> + 'a>
        = Session<'a, P, O>
    where
        P: 'a;
    type Checkpoint = ExecCheckpoint<P::State, P::Msg>;
    type Run = ShardedExecution<P::State>;

    fn seed(&self) -> u64 {
        self.config.seed
    }

    fn open<'a, O: RunObserver<P::State> + 'a>(
        &'a self,
        g: &'a Graph,
        program: &'a P,
        from: Option<Self::Checkpoint>,
        observer: &'a mut O,
    ) -> Result<Session<'a, P, O>, RuntimeError> {
        let config = &self.config;
        let engine = self.install(|| match from {
            Some(cp) => ShardedEngine::restored(config, g, program, observer, cp),
            None => Ok(ShardedEngine::fresh(config, g, program, observer, None)),
        })?;
        Ok(Session { exec: self, engine })
    }

    fn step<O: RunObserver<P::State>>(
        session: &mut Session<'_, P, O>,
    ) -> Result<Option<u64>, RuntimeError> {
        session.step()
    }

    fn checkpoint<O: RunObserver<P::State>>(session: &Session<'_, P, O>) -> Self::Checkpoint
    where
        P::State: Clone,
    {
        session.checkpoint()
    }

    fn observer<'s, O: RunObserver<P::State>>(session: &'s Session<'_, P, O>) -> &'s O {
        session.observer()
    }

    fn finish<O: RunObserver<P::State>>(
        session: Session<'_, P, O>,
    ) -> Result<Self::Run, RuntimeError> {
        Ok(session.finish())
    }

    fn cut(checkpoint: Self::Checkpoint) -> (u64, Vec<P::State>) {
        (checkpoint.round, checkpoint.states)
    }

    fn outcome(run: &Self::Run) -> (&[P::State], &RoundMeter) {
        (&run.states, &run.meter)
    }
}

/// Sets local vertex `local`'s bit in a shard's wake set: schedules it for the
/// next round. Called at the only two places a vertex can become schedulable
/// — right after it was stepped and is neither halted nor quiescent, and when
/// the first envelope lands in a live vertex's mailbox — so the set costs
/// nothing for the vertices a round does not touch.
fn wake_vertex(wake: &mut [u64], local: usize) {
    wake[local / 64] |= 1 << (local % 64);
}

/// One transfer bucket: the envelopes one shard sent another this round, in
/// send order, each `src` packed with its destination's shard-local index
/// ([`pack`]). Delivery unpacks every one before the sweep reads the arena,
/// so no program, observer or checkpoint sees a packed word.
type Bucket<M> = Vec<Envelope<M>>;

// A packed `src` holds two 32-bit halves.
const _: () = assert!(usize::BITS == 64, "packed ids need a 64-bit usize");

/// The low half of a packed `src`: the sender.
const SENDER: usize = u32::MAX as usize;

/// An envelope's `src` in transit: shard-local destination `local` in the high
/// half, sender `src` in the low half. Both fit: `assemble` refuses a shard
/// wider than `u32::MAX` and `Graph::from_edges` refuses `n > 2³²`.
fn pack(local: usize, src: usize) -> usize {
    (local << 32) | src
}

/// The high half of a packed `src`.
fn high(packed: usize) -> usize {
    packed >> 32
}

/// One local vertex's mailbox: `arena[start..start + len]`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

/// Why a shard's resident mail must fit a `u32` (spans index the arena).
const ARENA_LIMIT: &str = "one shard's resident mail exceeds u32::MAX envelopes: use more shards";

/// The constants of one run, as every pass over the shards needs them.
#[derive(Clone, Copy)]
struct Job<'a> {
    g: &'a Graph,
    seed: u64,
    capacity_words: usize,
    /// Vertices per shard (`shard_of(v) = v / chunk`).
    chunk: usize,
}

impl<'a> Job<'a> {
    /// Vertex `v`'s context at `round`.
    fn ctx(&self, v: usize, round: u64) -> NodeCtx<'a> {
        NodeCtx::new(v, self.g.n(), round, self.g.neighbors(v), self.seed)
    }
}

/// One shard's slice of the engine state: everything indexed by local vertex
/// (`global = start + local`), plus the pooled per-round buffers.
struct ShardState<S, M> {
    start: usize,
    end: usize,
    states: Vec<S>,
    halted: Vec<bool>,
    /// Every envelope readable this round, grouped by destination vertex,
    /// each group in ascending sender (then send) order.
    arena: Vec<Envelope<M>>,
    /// Each local vertex's group in `arena`.
    spans: Vec<Span>,
    /// Local indices whose span is non-empty, in first-envelope order: the
    /// only spans the next delivery has to reset.
    filled: Vec<u32>,
    /// The wake set, one bit per local vertex: exactly the vertices the next
    /// round schedules (see [`wake_vertex`] for who sets a bit).
    wake: Vec<u64>,
    /// This round's active vertices (ascending local indices), pooled.
    active: Vec<usize>,
    /// Outgoing buckets, one per destination shard, pooled.
    out: Vec<Bucket<M>>,
    /// The destination shards whose bucket this round's sweep first pushed
    /// into: the only buckets the exchange moves.
    out_touched: Vec<usize>,
    /// `(source shard, bucket)` in ascending source order, staged between
    /// sweep and delivery and handed back to their owners afterwards.
    incoming: Vec<(usize, Bucket<M>)>,
    /// Per-neighbor word accumulator for bandwidth accounting, pooled.
    scratch: Vec<usize>,
    /// Accumulator positions touched for the current vertex, pooled.
    touched: Vec<usize>,
    /// The send storage every vertex step of this shard fills in turn
    /// (messages and their neighbor slots), pooled.
    sends: SendBuf<M>,
    /// `(local vertex, inbox length, sends)` per active vertex, recorded
    /// only when tracing is enabled.
    meta: Vec<(usize, usize, usize)>,
    /// Post-step state digest per active vertex, aligned with `meta` —
    /// computed inside the parallel sweep (this shard's result slot) so the
    /// sequential commit point only delivers values. Populated only when the
    /// observer wants digests.
    digests: Vec<u64>,
    /// Wall time this shard spent in the last parallel pass (profiled runs).
    busy_ns: u64,
    /// Messages this shard sent this round.
    msgs: u64,
    /// Largest per-directed-edge word load this shard produced this round.
    max_on_edge: usize,
    /// First non-edge send this round (vertex order), if any.
    send_violation: Option<CongestError>,
    /// First bandwidth overcommitment this round (vertex order), if any.
    bw_violation: Option<CongestError>,
}

impl<S: Send + Sync, M: Clone + Send + Sync> ShardState<S, M> {
    /// Drains the wake set into this round's active list (ascending local
    /// index, by word and bit order).
    fn scan(&mut self) {
        self.active.clear();
        for (w, word) in self.wake.iter_mut().enumerate() {
            let mut bits = *word;
            if bits == 0 {
                continue;
            }
            *word = 0;
            while bits != 0 {
                self.active.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Local vertex `local`'s readable mailbox.
    fn mail(&self, local: usize) -> &[Envelope<M>] {
        let span = self.spans[local];
        &self.arena[span.start as usize..][..span.len as usize]
    }

    /// The wake set's definition: the vertices `round` schedules, by the
    /// full scan — every live vertex with mail or a non-quiescent state.
    /// `restored` rebuilds the wake set from it; debug builds assert it.
    fn full_scan<'a, P>(
        &'a self,
        program: &'a P,
        job: Job<'a>,
        round: u64,
    ) -> impl Iterator<Item = usize> + 'a
    where
        P: NodeProgram<State = S, Msg = M>,
    {
        (0..self.end - self.start).filter(move |&local| {
            let ctx = job.ctx(self.start + local, round);
            !self.halted[local]
                && (!self.mail(local).is_empty() || !program.quiescent(&ctx, &self.states[local]))
        })
    }

    /// Runs one round on this shard's active vertices, bucketing sends by
    /// destination shard and accounting bandwidth per directed edge.
    fn sweep<P>(
        &mut self,
        program: &P,
        job: Job<'_>,
        round: u64,
        trace: bool,
        digest_of: Option<fn(&S) -> u64>,
    ) where
        P: NodeProgram<State = S, Msg = M>,
    {
        self.msgs = 0;
        self.max_on_edge = 0;
        self.send_violation = None;
        self.bw_violation = None;
        self.meta.clear();
        self.digests.clear();
        for i in 0..self.active.len() {
            let local = self.active[i];
            let v = self.start + local;
            let ctx = job.ctx(v, round);
            let neighbors = ctx.neighbors;
            let span = self.spans[local];
            let stepped = driver::step_vertex(
                program,
                &ctx,
                &mut self.states[local],
                &self.arena[span.start as usize..][..span.len as usize],
                std::mem::take(&mut self.sends),
            );
            let mut sends = stepped.sends;
            // The one place this vertex's scheduling is decided until mail
            // next reaches it: its state cannot change before then.
            if stepped.halted {
                self.halted[local] = true;
            } else if !program.quiescent(&ctx.at_round(round + 1), &self.states[local]) {
                wake_vertex(&mut self.wake, local);
            }
            self.send_violation = self.send_violation.take().or(stepped.violation);
            if trace {
                self.meta.push((local, span.len as usize, sends.msgs.len()));
                if let Some(digest) = digest_of {
                    self.digests.push(digest(&self.states[local]));
                }
            }
            // One pass over the sends routes each into its destination
            // shard's bucket and loads its directed edge. Each edge (v, dst)
            // is loaded only by sends from this vertex, so a local
            // accumulator over the neighbor slice accounts it exactly; the
            // loads are checked once every send is counted.
            if self.scratch.len() < neighbors.len() {
                self.scratch.resize(neighbors.len(), 0);
            }
            self.touched.clear();
            self.msgs += sends.msgs.len() as u64;
            debug_assert_eq!(sends.slots.len(), sends.msgs.len());
            for ((dst, msg, words), &idx) in sends.msgs.drain(..).zip(&sends.slots) {
                if self.scratch[idx] == 0 {
                    self.touched.push(idx);
                }
                self.scratch[idx] += words;
                let (shard, local) = (dst / job.chunk, dst % job.chunk);
                let bucket = &mut self.out[shard];
                if bucket.is_empty() {
                    self.out_touched.push(shard);
                }
                bucket.push(Envelope {
                    src: pack(local, v),
                    msg,
                });
            }
            for &idx in &self.touched {
                let load = self.scratch[idx];
                self.scratch[idx] = 0;
                self.max_on_edge = self.max_on_edge.max(load);
                if load > job.capacity_words && self.bw_violation.is_none() {
                    self.bw_violation = Some(CongestError::BandwidthExceeded {
                        src: v,
                        dst: neighbors[idx],
                        words: load,
                        capacity: job.capacity_words,
                    });
                }
            }
            self.sends = sends;
        }
    }

    /// Replaces the mail the last round read with the staged buckets. It
    /// counts the envelopes per destination — noting each mailbox it makes
    /// non-empty and waking its vertex unless halted (mail to a halted vertex
    /// is resident, counted, and dropped by the next delivery) — gives every
    /// mailbox a contiguous range of the arena in first-envelope order, and
    /// puts every envelope in its range with `src` unpacked, by one of two
    /// kernels chosen by how many buckets arrived:
    ///
    /// - two or more are scattered: each envelope moves straight from its
    ///   bucket into its slot;
    /// - a lone one (every round of a one-shard run) is adopted, not copied —
    ///   the two buffers trade places, so such a run keeps one buffer the
    ///   size of its busiest round — and permuted in place.
    ///
    /// Buckets arrive in ascending source shard and each holds its sends in
    /// sweep order, so either way a mailbox holds ascending senders, one
    /// sender's mail in send order.
    fn deliver(&mut self) {
        for local in self.filled.drain(..) {
            self.spans[local as usize] = Span::default();
        }
        let total: usize = self.incoming.iter().map(|(_, bucket)| bucket.len()).sum();
        // Every span's start and length is at most this.
        u32::try_from(total).expect(ARENA_LIMIT);
        let lone = self.incoming.len() == 1;
        if lone {
            self.arena.clear();
            std::mem::swap(&mut self.arena, &mut self.incoming[0].1);
        }
        let Self {
            spans,
            filled,
            wake,
            halted,
            ..
        } = self;
        let mut count = |envs: &[Envelope<M>]| {
            for env in envs {
                let local = high(env.src);
                let span = &mut spans[local];
                if span.len == 0 {
                    // `assemble` checked that a shard's width fits.
                    filled.push(local as u32);
                    if !halted[local] {
                        wake_vertex(wake, local);
                    }
                }
                span.len += 1;
            }
        };
        if lone {
            count(&self.arena);
        } else {
            for (_, bucket) in &self.incoming {
                count(bucket);
            }
        }
        // Park each span's cursor at the end of its range; both kernels walk
        // the envelopes backwards and move it to the start, so equal
        // destinations keep their order.
        let mut end = 0;
        for &local in &self.filled {
            let span = &mut self.spans[local as usize];
            end += span.len;
            span.start = end;
        }
        if lone {
            self.permute();
        } else {
            self.scatter(total);
        }
    }

    /// The lone-bucket kernel: writes each envelope's final position into the
    /// high half of its own `src`, then applies that permutation by following
    /// its cycles — every swap puts one envelope in its final place — and
    /// clears each high half once its envelope is there.
    fn permute(&mut self) {
        for env in self.arena.iter_mut().rev() {
            let span = &mut self.spans[high(env.src)];
            span.start -= 1;
            env.src = pack(span.start as usize, env.src & SENDER);
        }
        for i in 0..self.arena.len() {
            loop {
                let j = high(self.arena[i].src);
                if j == i {
                    break;
                }
                self.arena.swap(i, j);
            }
            // Positions below `i` hold their own envelopes, so no later swap
            // moves this one.
            self.arena[i].src &= SENDER;
        }
    }

    /// The kernel for two or more buckets: moves every envelope straight from
    /// its bucket into its slot. The arena keeps last round's envelopes as
    /// the slots' placeholders, padded by one clone if this round's mail is
    /// more, and each is dropped as its slot is written.
    fn scatter(&mut self, total: usize) {
        match self.incoming.first() {
            // Only buckets the sweep pushed into are exchanged.
            Some((_, bucket)) => self.arena.resize(total, bucket[0].clone()),
            None => self.arena.clear(),
        }
        for (_, bucket) in self.incoming.iter_mut().rev() {
            for mut env in bucket.drain(..).rev() {
                let span = &mut self.spans[high(env.src)];
                span.start -= 1;
                env.src &= SENDER;
                self.arena[span.start as usize] = env;
            }
        }
    }
}

/// A profiled run's recording state: the caller's profiler, the run's
/// wall-clock origin, and the pooled sample of the round in progress.
struct Recorder<'a> {
    profiler: &'a mut dyn Profiler,
    start: Instant,
    sample: RoundSample,
}

impl Recorder<'_> {
    /// Wall-clock offset from the run's start, in nanoseconds: every offset
    /// and total the profiler receives is one.
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

struct ShardedEngine<'a, P: NodeProgram, O> {
    program: &'a P,
    job: Job<'a>,
    observer: &'a mut O,
    /// Present in a profiled run only; an unprofiled run reads no clock.
    recorder: Option<Recorder<'a>>,
    max_rounds: u64,
    shards: Vec<ShardState<P::State, P::Msg>>,
    meter: RoundMeter,
    arena: ArenaStats,
    round: u64,
}

impl<'a, P, O> ShardedEngine<'a, P, O>
where
    P: NodeProgram,
    O: RunObserver<P::State>,
{
    /// The engine at round 0 with its vertices split into `config.shards`
    /// contiguous ranges (at least one) whose per-vertex state the caller
    /// fills in: `states`, `halted` and the wake sets are still empty.
    fn assemble(
        config: &ShardedConfig,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        profiler: Option<&'a mut dyn Profiler>,
    ) -> Self {
        let n = g.n();
        let num_shards = config.shards.max(1);
        let chunk = n.div_ceil(num_shards).max(1);
        let capacity = config.capacity_words.max(1);
        let shards = (0..num_shards)
            .map(|s| {
                let start = (s * chunk).min(n);
                let end = ((s + 1) * chunk).min(n);
                // Bucket destinations are shard-local indices and spans index
                // one shard's resident mail, which the bandwidth cap bounds by
                // `capacity` per incoming half-edge (zero-word messages
                // excepted: `deliver` checks what actually arrives).
                let resident = (g.offsets()[end] - g.offsets()[start]).saturating_mul(capacity);
                assert!(
                    u32::try_from(chunk.max(resident)).is_ok(),
                    "shard {s} of {num_shards} is too wide for the engine's u32 mailbox indices \
                     ({chunk} vertices, up to {resident} resident envelopes a round): use more shards"
                );
                ShardState {
                    start,
                    end,
                    states: Vec::new(),
                    halted: Vec::new(),
                    arena: Vec::new(),
                    spans: vec![Span::default(); end - start],
                    filled: Vec::new(),
                    wake: vec![0; (end - start).div_ceil(64)],
                    active: Vec::new(),
                    out: (0..num_shards).map(|_| Bucket::default()).collect(),
                    out_touched: Vec::new(),
                    incoming: Vec::new(),
                    scratch: Vec::new(),
                    touched: Vec::new(),
                    sends: SendBuf::new(),
                    meta: Vec::new(),
                    digests: Vec::new(),
                    busy_ns: 0,
                    msgs: 0,
                    max_on_edge: 0,
                    send_violation: None,
                    bw_violation: None,
                }
            })
            .collect();
        ShardedEngine {
            program,
            job: Job {
                g,
                seed: config.seed,
                capacity_words: config.capacity_words,
                chunk,
            },
            observer,
            recorder: profiler.map(|profiler| Recorder {
                profiler,
                start: Instant::now(),
                sample: RoundSample::default(),
            }),
            max_rounds: config
                .max_rounds
                .min(program.round_budget_hint().unwrap_or(u64::MAX)),
            shards,
            meter: RoundMeter::with_capacity(config.capacity_words),
            arena: ArenaStats::default(),
            round: 0,
        }
    }

    /// Rebuilds the loop state from a checkpoint — no `init`, no round-0
    /// seal — after checking it against `g` and the round budget.
    fn restored(
        config: &ShardedConfig,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        cp: ExecCheckpoint<P::State, P::Msg>,
    ) -> Result<Self, RuntimeError> {
        let (n, round) = (g.n(), cp.round);
        let mismatch = |what, expected: u64, found: u64| RuntimeError::CheckpointMismatch {
            what,
            expected,
            found,
        };
        let narrow = |len: usize| {
            u32::try_from(len).map_err(|_| mismatch(ARENA_LIMIT, u32::MAX.into(), len as u64))
        };
        for (what, len) in [
            ("states length", cp.states.len()),
            ("halted length", cp.halted.len()),
            ("inbox length", cp.inbox.len()),
        ] {
            if len != n {
                return Err(mismatch(what, n as u64, len as u64));
            }
        }
        check_fits(g, program, round, config.seed, &cp.states)?;
        for (v, mailbox) in cp.inbox.iter().enumerate() {
            let neighbors = g.neighbors(v);
            if let Some(env) = mailbox
                .iter()
                .find(|env| neighbors.binary_search(&env.src).is_err())
            {
                let what = "mail to vertex `expected` from non-neighbour `found`";
                return Err(mismatch(what, v as u64, env.src as u64));
            }
        }
        let mut engine = Self::assemble(config, g, program, observer, None);
        let job = engine.job;
        (engine.meter, engine.round) = (RoundMeter::from_parts(cp.meter), round);
        if round > engine.max_rounds {
            let what = "round exceeds the round budget";
            return Err(mismatch(what, engine.max_rounds, round));
        }
        let (mut states, mut halted, mut inbox) = (
            cp.states.into_iter(),
            cp.halted.into_iter(),
            cp.inbox.into_iter(),
        );
        for shard in &mut engine.shards {
            let len = shard.end - shard.start;
            shard.states = states.by_ref().take(len).collect();
            shard.halted = halted.by_ref().take(len).collect();
            for (local, mailbox) in inbox.by_ref().take(len).enumerate() {
                if mailbox.is_empty() {
                    continue;
                }
                shard.spans[local] = Span {
                    start: narrow(shard.arena.len())?,
                    len: narrow(mailbox.len())?,
                };
                shard.filled.push(narrow(local)?);
                shard.arena.extend(mailbox);
            }
            narrow(shard.arena.len())?;
            engine.arena.mailbox_slots_hwm += shard.arena.len();
            let woken: Vec<usize> = shard.full_scan(program, job, round + 1).collect();
            for local in woken {
                wake_vertex(&mut shard.wake, local);
            }
        }
        Ok(engine)
    }

    fn fresh(
        config: &ShardedConfig,
        g: &'a Graph,
        program: &'a P,
        observer: &'a mut O,
        profiler: Option<&'a mut dyn Profiler>,
    ) -> Self {
        let mut engine = Self::assemble(config, g, program, observer, profiler);
        let job = engine.job;
        let want_digests = O::ENABLED && engine.observer.wants_digests();
        // Parallel init of states, halted flags and the round-1 wake set (no
        // mail yet: the live non-quiescent vertices), shard by shard.
        engine.par_shards(None, |shard| {
            let vertices = shard.start..shard.end;
            shard.states = vertices
                .clone()
                .map(|v| program.init(&job.ctx(v, 0)))
                .collect();
            shard.halted = vertices
                .map(|v| program.halted(&job.ctx(v, 0), &shard.states[v - shard.start]))
                .collect();
            let woken: Vec<usize> = shard.full_scan(program, job, 1).collect();
            for local in woken {
                wake_vertex(&mut shard.wake, local);
            }
            if want_digests {
                shard.digests = shard.states.iter().map(|s| O::state_digest(s)).collect();
            }
        });

        // Round 0: deliver the initial configuration's digests (hashed in the
        // pass above, if wanted) sequentially and in ascending vertex order,
        // exactly as the reference stepper does.
        if O::ENABLED {
            for shard in &engine.shards {
                for (local, &digest) in shard.digests.iter().enumerate() {
                    let vertex = shard.start + local;
                    engine
                        .observer
                        .vertex_digest(EngineKind::Executor, 0, vertex, digest);
                }
            }
            engine.observer.round_sealed(EngineKind::Executor, 0);
        }
        if let Some(rec) = &mut engine.recorder {
            // The effective worker count: the installed pool's size, or all
            // available threads when no dedicated pool was built.
            let threads = rayon::current_num_threads().max(1);
            let init_ns = rec.now();
            rec.profiler.begin(engine.shards.len(), threads, init_ns);
        }
        engine
    }

    /// Steps to the end and reports the total wall time to the profiler.
    fn drive(&mut self) -> Result<(), RuntimeError> {
        while self.step()? {}
        if let Some(rec) = &mut self.recorder {
            let total = rec.now();
            rec.profiler.finish(total);
        }
        Ok(())
    }

    /// Runs `pass` on every shard in parallel. A profiled run stamps each
    /// shard's busy time into the shard itself, so no state is shared, and
    /// then copies the stamps into the round's sample as `phase`'s series.
    fn par_shards(
        &mut self,
        phase: Option<usize>,
        pass: impl Fn(&mut ShardState<P::State, P::Msg>) + Sync,
    ) {
        let timed = self.recorder.is_some();
        let _: Vec<()> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(_, shard)| {
                let busy = timed.then(Instant::now);
                pass(shard);
                shard.busy_ns = busy.map_or(0, |b| b.elapsed().as_nanos() as u64);
            })
            .collect();
        if let (Some(rec), Some(phase)) = (&mut self.recorder, phase) {
            let busy = self.shards.iter().map(|shard| shard.busy_ns);
            rec.sample.shard_busy_ns[phase].extend(busy);
        }
    }

    /// The one place a profiled round's phase boundaries are stamped: closes
    /// phase `ended` and opens `started` at the same instant (either may be
    /// `None`). The round opens with its scan and closes with its exchange;
    /// closing the exchange hands the round's sample to the profiler.
    fn phase(&mut self, ended: Option<usize>, started: Option<usize>) {
        let Some(rec) = &mut self.recorder else {
            return;
        };
        let now = rec.now();
        let sample = &mut rec.sample;
        if started == Some(PHASE_SCAN) {
            sample.reset(self.round + 1);
            sample.start_ns = now;
        }
        if let Some(p) = ended {
            sample.phase_wall_ns[p] = now - sample.phase_start_ns[p];
        }
        if let Some(p) = started {
            sample.phase_start_ns[p] = now;
        }
        if ended == Some(PHASE_EXCHANGE) {
            sample.wall_ns = now - sample.start_ns;
            rec.profiler.record_round(sample);
        }
    }

    /// Executes one full round — parallel wake-set drain, parallel shard sweep,
    /// sequential violation/observer/meter resolution, sparse exchange around
    /// the parallel delivery — and reports whether there was one to execute.
    fn step(&mut self) -> Result<bool, RuntimeError> {
        let round = self.round + 1;
        let (program, job) = (self.program, self.job);
        // Scan (parallel over shards): each shard drains its wake set into
        // its active list. Debug builds check it against the full scan, so the
        // test suite checks `quiescent`'s round-stability on every run.
        self.phase(None, Some(PHASE_SCAN));
        self.par_shards(Some(PHASE_SCAN), |shard| {
            shard.scan();
            debug_assert!(
                shard
                    .active
                    .iter()
                    .copied()
                    .eq(shard.full_scan(program, job, round)),
                "round {round}, shard at {}: wake set {:?} != full scan (a `quiescent` whose \
                 answer for an unstepped vertex depends on the round breaks the engine's contract)",
                shard.start,
                shard.active
            );
        });
        self.phase(Some(PHASE_SCAN), None);
        if let Some(rec) = &mut self.recorder {
            let frontier = self.shards.iter().map(|shard| shard.active.len());
            rec.sample.frontier.extend(frontier);
        }
        // Done when nothing is scheduled: every vertex has halted (only live
        // vertices are ever woken), or the fixpoint — live vertices remain
        // but none has mail or anything left to do.
        let active: usize = self.shards.iter().map(|s| s.active.len()).sum();
        if active == 0 {
            return Ok(false);
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
                active,
            });
        }
        // Parallel shard sweep over the active frontier only. When the
        // observer wants digests, each shard also hashes the states it just
        // stepped (the digests ride in the shard's own result slot) so the
        // sequential commit point below only delivers precomputed values.
        let want_digests = O::ENABLED && self.observer.wants_digests();
        let digest_of: Option<fn(&P::State) -> u64> =
            want_digests.then_some(O::state_digest as fn(&P::State) -> u64);
        self.phase(None, Some(PHASE_STEP));
        self.par_shards(Some(PHASE_STEP), |shard| {
            shard.sweep(program, job, round, O::ENABLED, digest_of);
        });

        // Sequential resolution, in vertex order by construction (shards are
        // ascending vertex ranges): non-edge sends first, then bandwidth —
        // the same precedence as the reference stepper.
        self.phase(Some(PHASE_STEP), Some(PHASE_COMMIT));
        if let Some(rec) = &mut self.recorder {
            // The shard→shard traffic, read while the route buckets are still
            // populated: one entry per bucket the sweep pushed into.
            for (src, shard) in self.shards.iter().enumerate() {
                let buckets = shard.out_touched.iter();
                let sent = buckets.map(|&dst| (src, dst, shard.out[dst].len() as u64));
                rec.sample.traffic.extend(sent);
            }
        }
        if let Some(err) = self.shards.iter().find_map(|s| s.send_violation.clone()) {
            return Err(RuntimeError::Model(err));
        }
        // Every send was staged in exactly one route bucket.
        let messages: u64 = self.shards.iter().map(|s| s.msgs).sum();
        self.arena.route_slots_hwm = self.arena.route_slots_hwm.max(messages as usize);
        let max_on_edge = self.shards.iter().map(|s| s.max_on_edge).max().unwrap_or(0);
        if O::ENABLED {
            for shard in &self.shards {
                for (i, &(local, inbox, sent)) in shard.meta.iter().enumerate() {
                    let vertex = shard.start + local;
                    self.observer.event(&Event::VertexStep {
                        engine: EngineKind::Executor,
                        round,
                        vertex,
                        inbox,
                        sent,
                    });
                    if want_digests {
                        self.observer.vertex_digest(
                            EngineKind::Executor,
                            round,
                            vertex,
                            shard.digests[i],
                        );
                    }
                }
            }
        }
        self.meter.seal_validated_round(messages, max_on_edge);
        if let Some(err) = self.shards.iter().find_map(|s| s.bw_violation.clone()) {
            return Err(RuntimeError::Model(err));
        }
        if O::ENABLED {
            self.observer.event(&Event::RoundClose {
                engine: EngineKind::Executor,
                round,
                messages: self.meter.messages(),
            });
            let sealing = self.recorder.is_some().then(Instant::now);
            self.observer.round_sealed(EngineKind::Executor, round);
            if let (Some(rec), Some(sealing)) = (&mut self.recorder, sealing) {
                rec.sample.seal_ns = sealing.elapsed().as_nanos() as u64;
            }
        }

        // Exchange, sparse: hand each bucket the sweep pushed into to its
        // destination (pointer moves; ascending source shard, so in sender
        // order), deliver in parallel, then return the emptied buckets to
        // their owners for reuse. Buckets that stayed empty are never touched.
        self.phase(Some(PHASE_COMMIT), Some(PHASE_ROUTE));
        for s in 0..self.shards.len() {
            let mut touched = std::mem::take(&mut self.shards[s].out_touched);
            for d in touched.drain(..) {
                let bucket = std::mem::take(&mut self.shards[s].out[d]);
                self.shards[d].incoming.push((s, bucket));
            }
            self.shards[s].out_touched = touched;
        }
        self.phase(Some(PHASE_ROUTE), Some(PHASE_DELIVER));
        self.par_shards(Some(PHASE_DELIVER), ShardState::deliver);
        let mailbox_slots: usize = self.shards.iter().map(|s| s.arena.len()).sum();
        self.arena.mailbox_slots_hwm = self.arena.mailbox_slots_hwm.max(mailbox_slots);
        self.phase(Some(PHASE_DELIVER), Some(PHASE_EXCHANGE));
        for d in 0..self.shards.len() {
            let mut incoming = std::mem::take(&mut self.shards[d].incoming);
            for (s, bucket) in incoming.drain(..) {
                self.shards[s].out[d] = bucket;
            }
            self.shards[d].incoming = incoming;
        }
        self.phase(Some(PHASE_EXCHANGE), None);
        Ok(true)
    }

    /// Ends the run. Each shard's states are taken out and the shard, with
    /// its message pools, dropped before the states are concatenated, so the
    /// copy never sits beside the pools.
    fn finish(self) -> ShardedExecution<P::State> {
        let parts: Vec<Vec<P::State>> = self.shards.into_iter().map(|s| s.states).collect();
        let mut states = Vec::with_capacity(self.job.g.n());
        for part in parts {
            states.extend(part);
        }
        ShardedExecution {
            rounds: self.meter.rounds(),
            messages: self.meter.messages(),
            states,
            meter: self.meter,
            arena: self.arena,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::{Mixer, Wave};
    use crate::executor::Executor;
    use crate::program::Outbox;
    use mfd_graph::generators;
    use mfd_trace::{DigestSink, RecordingSink};

    /// Runs `program` on the reference stepper and on the sharded engine over
    /// shards {1, 2, 3, 8, 64} × threads {1, 4}, and asserts every sharded run
    /// bit-identical to the reference: states, meter, and the complete
    /// observed stream — every `RoundOpen`/`VertexStep`/`RoundClose` event
    /// and every per-vertex digest, so not only the outputs but the schedule
    /// itself. Returns the reference run and the (configuration-invariant)
    /// arena marks for case-specific assertions.
    fn assert_matches_executor<P>(
        case: &str,
        g: &mfd_graph::Graph,
        program: &P,
    ) -> (crate::Execution<P::State>, ArenaStats)
    where
        P: NodeProgram,
        P::State: PartialEq + std::fmt::Debug + std::hash::Hash,
    {
        assert_matches_executor_at(case, g, program, RoundMeter::DEFAULT_CAPACITY_WORDS)
    }

    /// [`assert_matches_executor`] with `capacity_words` words per edge.
    fn assert_matches_executor_at<P>(
        case: &str,
        g: &mfd_graph::Graph,
        program: &P,
        capacity_words: usize,
    ) -> (crate::Execution<P::State>, ArenaStats)
    where
        P: NodeProgram,
        P::State: PartialEq + std::fmt::Debug + std::hash::Hash,
    {
        let exec_cfg = ExecutorConfig {
            capacity_words,
            ..ExecutorConfig::default()
        };
        let mut reference_sink = RecordingSink::with_digests();
        let reference = Executor::new(exec_cfg.clone())
            .run_traced(g, program, &mut reference_sink)
            .unwrap();
        let mut arenas = Vec::new();
        for shards in [1, 2, 3, 8, 64] {
            for threads in [1, 4] {
                let at = format!("{case}: shards={shards} threads={threads}");
                let mut cfg = ShardedConfig::matching(&exec_cfg, shards);
                cfg.threads = threads;
                let mut sink = RecordingSink::with_digests();
                let run = ShardedExecutor::new(cfg)
                    .run_traced(g, program, &mut sink)
                    .unwrap();
                assert_eq!(run.states, reference.states, "{at}");
                assert_eq!(run.rounds, reference.rounds, "{at}");
                assert_eq!(run.messages, reference.messages, "{at}");
                assert_eq!(
                    run.meter.max_words_on_edge(),
                    reference.meter.max_words_on_edge(),
                    "{at}"
                );
                assert_eq!(sink.events, reference_sink.events, "{at}: event stream");
                assert_eq!(sink.digest_log, reference_sink.digest_log, "{at}: digests");
                arenas.push(run.arena);
            }
        }
        assert!(arenas.iter().all(|a| *a == arenas[0]), "{case}: arena");
        (reference, arenas[0])
    }

    #[test]
    fn matches_unsharded_states_meter_and_digests_across_shards_and_threads() {
        let g = generators::triangulated_grid(9, 7);
        assert_matches_executor("mixer", &g, &Mixer { rounds: 6 });
        // 400 vertices: up to seven wake-set words per shard.
        let wide = generators::grid(20, 20);
        assert_matches_executor("mixer, wide shards", &wide, &Mixer { rounds: 4 });
    }

    /// Default `quiescent`: every live vertex is scheduled every round.
    /// Vertex `v` halts at round `1 + v % period`, and broadcasts a fold of
    /// what it heard at every round after `quiet` — so neighbours halt at
    /// different rounds and keep being sent to after they did.
    struct Staggered {
        period: u64,
        quiet: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StaggeredState {
        steps: u64,
        fold: u64,
    }

    impl NodeProgram for Staggered {
        type State = StaggeredState;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx) -> StaggeredState {
            StaggeredState {
                steps: 0,
                fold: ctx.id as u64,
            }
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut StaggeredState,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            state.steps += 1;
            for env in inbox {
                state.fold = state.fold.wrapping_mul(31).wrapping_add(env.msg);
            }
            if ctx.round > self.quiet {
                out.broadcast(state.fold);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &StaggeredState) -> bool {
            ctx.round > ctx.id as u64 % self.period
        }
    }

    /// A wave whose vertices sit on the token: a vertex that hears it counts
    /// down `1 + v % 3` rounds — not quiescent, inbox mostly empty — and only
    /// then forwards it and halts.
    struct SlowWave;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct SlowWaveState {
        timer: Option<u64>,
        steps: u64,
        done: bool,
    }

    impl NodeProgram for SlowWave {
        type State = SlowWaveState;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx) -> SlowWaveState {
            SlowWaveState {
                timer: (ctx.id == 0).then_some(2),
                steps: 0,
                done: false,
            }
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut SlowWaveState,
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            state.steps += 1;
            match state.timer {
                None if !inbox.is_empty() => state.timer = Some(1 + ctx.id as u64 % 3),
                None => {}
                Some(0) => {
                    out.broadcast(state.steps);
                    state.done = true;
                }
                Some(t) => state.timer = Some(t - 1),
            }
        }

        fn halted(&self, _ctx: &NodeCtx, state: &SlowWaveState) -> bool {
            state.done
        }

        fn quiescent(&self, _ctx: &NodeCtx, state: &SlowWaveState) -> bool {
            state.timer.is_none()
        }
    }

    #[test]
    fn wake_set_schedules_exactly_what_the_executor_schedules() {
        // (i) Default `quiescent`, vertices halting at different rounds.
        let grid = generators::triangulated_grid(9, 7);
        let staggered = Staggered {
            period: 5,
            quiet: 0,
        };
        let (run, _) = assert_matches_executor("staggered", &grid, &staggered);
        assert_eq!(run.rounds, 5);
        assert!(run
            .states
            .iter()
            .enumerate()
            .all(|(v, s)| s.steps == 1 + v as u64 % 5));

        // (ii) Fixpoint exit with live vertices left: the wave never reaches
        // the second component, whose vertices neither halt nor wake.
        let islands = generators::path(4).disjoint_union(&generators::path(3));
        let (run, _) = assert_matches_executor("islands", &islands, &Wave { frontier: true });
        assert_eq!(run.rounds, 4);
        assert!(run.states[4..].iter().all(|s| s.hop.is_none()));

        // (iii) Mail to halted vertices only: on a path, even vertices halt
        // in the silent round 1 and the odd ones broadcast at round 2. The
        // mail is resident (the arena counts it), wakes nobody, and is
        // dropped: round 2 is the last and no even vertex is stepped again.
        let path = generators::path(9);
        let to_the_halted = Staggered {
            period: 2,
            quiet: 1,
        };
        let (run, arena) = assert_matches_executor("to the halted", &path, &to_the_halted);
        assert_eq!((run.rounds, run.messages), (2, 8));
        assert_eq!(arena.mailbox_slots_hwm, 8);
        assert!(run.states.iter().step_by(2).all(|s| s.steps == 1));

        // (iv) Non-quiescent on an empty inbox for several rounds running.
        let (run, _) = assert_matches_executor("slow wave", &grid, &SlowWave);
        assert!(run.states.iter().all(|s| s.done && s.steps >= 3));

        // The same two waves over shards wider than one wake-set word (400
        // vertices: seven words at one shard), so the drain crosses word
        // boundaries and skips all-zero words behind the wavefront.
        let wide = generators::grid(20, 20);
        let (run, _) = assert_matches_executor("wide wave", &wide, &Wave { frontier: true });
        assert_eq!(run.states[399].hop, Some(38));
        let (run, _) = assert_matches_executor("wide slow wave", &wide, &SlowWave);
        assert!(run.states.iter().all(|s| s.done));
    }

    #[test]
    fn non_edge_send_is_rejected_like_the_unsharded_engine() {
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
        let g = generators::path(5);
        let err = ShardedExecutor::new(ShardedConfig::default())
            .run(&g, &NonEdgeSender)
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Model(CongestError::NotAnEdge { src: 0, dst: 4 })
        );
    }

    #[test]
    fn bandwidth_overcommitment_is_rejected_and_capacity_respected() {
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
        let err = ShardedExecutor::new(ShardedConfig::default())
            .run(&g, &DoubleSender)
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Model(CongestError::BandwidthExceeded {
                src: 0,
                dst: 1,
                words: 2,
                capacity: 1,
            })
        );
        let cfg = ShardedConfig {
            capacity_words: 2,
            ..ShardedConfig::default()
        };
        ShardedExecutor::new(cfg).run(&g, &DoubleSender).unwrap();
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
        let cfg = ShardedConfig {
            max_rounds: 10,
            ..ShardedConfig::default()
        };
        assert_eq!(
            ShardedExecutor::new(cfg).run(&g, &Spinner).unwrap_err(),
            RuntimeError::RoundLimit { limit: 10 }
        );
    }

    #[test]
    fn empty_graph_finishes_immediately() {
        let g = mfd_graph::Graph::new(0);
        let run = ShardedExecutor::new(ShardedConfig::default())
            .run(&g, &Mixer { rounds: 3 })
            .unwrap();
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages, 0);
        assert_eq!(run.arena, ArenaStats::default());
    }

    #[test]
    fn arena_high_water_marks_are_deterministic_and_positive() {
        let g = generators::triangulated_grid(8, 8);
        let program = Mixer { rounds: 4 };
        let runs: Vec<ArenaStats> = [1, 4]
            .iter()
            .map(|&threads| {
                ShardedExecutor::new(ShardedConfig::with_shards_threads(4, threads))
                    .run(&g, &program)
                    .unwrap()
                    .arena
            })
            .collect();
        assert_eq!(runs[0], runs[1], "hwm must be thread-count-invariant");
        // Every broadcast round stages 2m envelopes, all delivered.
        assert_eq!(runs[0].route_slots_hwm, 2 * g.m());
        assert_eq!(runs[0].mailbox_slots_hwm, 2 * g.m());
    }

    /// The layouts the checkpoint tests cross: one shard, uneven shards, more
    /// shards than most shards have vertices; one thread and several.
    fn layouts(capacity_words: usize) -> Vec<ShardedExecutor> {
        [(1, 1), (3, 4), (64, 1)]
            .iter()
            .map(|&(shards, threads)| {
                ShardedExecutor::new(ShardedConfig {
                    capacity_words,
                    ..ShardedConfig::with_shards_threads(shards, threads)
                })
            })
            .collect()
    }

    /// Steps a fresh session to the end, capturing `(checkpoint, sink
    /// export)` every `every` rounds.
    #[allow(clippy::type_complexity)]
    fn journal<P>(
        exec: &ShardedExecutor,
        g: &Graph,
        program: &P,
        every: u64,
    ) -> (
        ShardedExecution<P::State>,
        DigestSink,
        Vec<(ExecCheckpoint<P::State, P::Msg>, mfd_trace::DigestState)>,
    )
    where
        P: NodeProgram,
        P::State: Clone + std::hash::Hash,
    {
        let mut sink = DigestSink::new();
        let mut captured = Vec::new();
        let mut session = exec.open(g, program, None, &mut sink).unwrap();
        while let Some(round) = session.step().unwrap() {
            if round % every == 0 {
                captured.push((session.checkpoint(), session.observer().export()));
            }
        }
        (session.finish(), sink, captured)
    }

    /// Journals `program` every `every` rounds on every layout and resumes
    /// every capture on every layout: states, meter and digest chain must
    /// equal the reference stepper's uninterrupted run, and the resumed
    /// arena marks must cover exactly the rounds since the restore. Returns
    /// the captured rounds.
    fn assert_resumes_on_every_layout<P>(
        g: &mfd_graph::Graph,
        program: &P,
        capacity_words: usize,
        every: u64,
    ) -> Vec<u64>
    where
        P: NodeProgram,
        P::State: Clone + PartialEq + std::fmt::Debug + std::hash::Hash,
    {
        let mut reference_sink = DigestSink::new();
        let full = Executor::new(ExecutorConfig {
            capacity_words,
            ..ExecutorConfig::default()
        })
        .run_traced(g, program, &mut reference_sink)
        .unwrap();

        let mut rounds = Vec::new();
        for exec in layouts(capacity_words) {
            let (run, sink, captured) = journal(&exec, g, program, every);
            assert_eq!(run.states, full.states);
            assert_eq!(run.meter.to_parts(), full.meter.to_parts());
            assert_eq!(sink.chain(), reference_sink.chain());
            rounds = captured.iter().map(|(cp, _)| cp.round).collect();

            // Every capture resumes on every layout, not only its own.
            for (cp, digest_state) in captured {
                let resident: usize = cp.inbox.iter().map(Vec::len).sum();
                for other in layouts(capacity_words) {
                    let mut sink = DigestSink::restore(digest_state.clone());
                    let mut session = other.open(g, program, Some(cp.clone()), &mut sink).unwrap();
                    let next = (cp.round < full.rounds).then_some(cp.round + 1);
                    assert_eq!(session.step().unwrap(), next);
                    while session.step().unwrap().is_some() {}
                    let resumed = session.finish();
                    assert_eq!(resumed.states, full.states);
                    assert_eq!(resumed.meter.to_parts(), full.meter.to_parts());
                    assert_eq!(sink.chain(), reference_sink.chain());
                    // The marks cover the checkpoint's mail and the rounds
                    // since: never more than the uninterrupted run's.
                    let (marks, all) = (resumed.arena, run.arena);
                    assert!((resident..=all.mailbox_slots_hwm).contains(&marks.mailbox_slots_hwm));
                    assert!(marks.route_slots_hwm <= all.route_slots_hwm);
                    let idle = other
                        .open(g, program, Some(cp.clone()), &mut NullSink)
                        .unwrap()
                        .finish();
                    assert_eq!(
                        (idle.arena.mailbox_slots_hwm, idle.arena.route_slots_hwm),
                        (resident, 0)
                    );
                }
            }
        }
        rounds
    }

    #[test]
    fn resume_from_any_checkpoint_matches_the_uninterrupted_run() {
        let g = generators::triangulated_grid(6, 6);
        // Captures at rounds 2, 4, 6, 8 (the run ends in round 9).
        let rounds = assert_resumes_on_every_layout(&g, &Mixer { rounds: 9 }, 1, 2);
        assert_eq!(rounds, vec![2, 4, 6, 8]);
    }

    /// Several messages per directed edge and round: every vertex sends its
    /// lowest neighbour `k - 1` messages around one broadcast (that edge
    /// carries `k`, the others one), folds its inbox in order, and halts at
    /// round `1 + v % period` — so neighbours mail vertices that halted the
    /// same round, and earlier.
    struct Chatter<M> {
        k: u64,
        period: u64,
        pack: fn(u64) -> M,
        unpack: fn(&M) -> u64,
    }

    impl<M: crate::RuntimeMessage> NodeProgram for Chatter<M> {
        /// `(fold of everything heard, rounds stepped)`.
        type State = (u64, u64);
        type Msg = M;

        fn init(&self, ctx: &NodeCtx) -> (u64, u64) {
            (ctx.id as u64, 0)
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut (u64, u64),
            inbox: &[Envelope<M>],
            out: &mut Outbox<'_, M>,
        ) {
            state.1 += 1;
            for env in inbox {
                let heard = (env.src as u64).wrapping_mul(7) + (self.unpack)(&env.msg);
                state.0 = state.0.wrapping_mul(31).wrapping_add(heard);
            }
            let Some(&lowest) = ctx.neighbors.first() else {
                return;
            };
            for i in 0..self.k {
                if i == self.k / 2 {
                    out.broadcast((self.pack)(state.0));
                } else {
                    out.send(lowest, (self.pack)(state.0.wrapping_add(i + 1)));
                }
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &(u64, u64)) -> bool {
            ctx.round > ctx.id as u64 % self.period
        }
    }

    #[test]
    fn several_messages_per_directed_edge_keep_sender_then_send_order() {
        let g = generators::triangulated_grid(9, 7);
        // One-word messages, `k` to the same neighbour at capacity `k`.
        let worded = Chatter::<u64> {
            k: 3,
            period: 5,
            pack: |x| x,
            unpack: |&x| x,
        };
        let (run, arena) = assert_matches_executor_at("chatter", &g, &worded, 3);
        assert_eq!((run.rounds, run.meter.max_words_on_edge()), (5, 3));
        // Round 1: every vertex sends deg + k - 1 messages, all resident.
        assert_eq!(arena.mailbox_slots_hwm, 2 * g.m() + 2 * g.n());
        // Zero-word messages: any number per edge is legal at capacity 1.
        let wordless = Chatter::<()> {
            k: 4,
            period: 5,
            pack: |_| (),
            unpack: |_| 1,
        };
        let (run, _) = assert_matches_executor("wordless chatter", &g, &wordless);
        assert_eq!((run.rounds, run.meter.max_words_on_edge()), (5, 0));
        // One word too many on the doubled edge is still a violation.
        let err = ShardedExecutor::new(ShardedConfig {
            capacity_words: 2,
            ..ShardedConfig::default()
        })
        .run(&g, &worded)
        .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Model(CongestError::BandwidthExceeded { words: 3, .. })
        ));

        // Checkpoints holding such mail resume identically on every layout.
        let small = generators::triangulated_grid(6, 6);
        assert_eq!(
            assert_resumes_on_every_layout(&small, &worded, 3, 1),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(
            assert_resumes_on_every_layout(&small, &wordless, 1, 2),
            vec![2, 4]
        );
    }

    #[test]
    #[should_panic(expected = "too wide for the engine's u32 mailbox indices")]
    fn a_layout_whose_mail_could_overflow_the_spans_is_refused_before_init() {
        struct NeverBuilt;
        impl NodeProgram for NeverBuilt {
            type State = ();
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx) {
                panic!("the layout check comes first");
            }
            fn round(&self, _: &NodeCtx, _: &mut (), _: &[Envelope<u64>], _: &mut Outbox<'_, u64>) {
            }
            fn halted(&self, _ctx: &NodeCtx, _state: &()) -> bool {
                true
            }
        }
        // Four half-edges at 2^31 words each could be 2^33 resident envelopes.
        let cfg = ShardedConfig {
            capacity_words: 1 << 31,
            ..ShardedConfig::with_shards_threads(1, 1)
        };
        let g = generators::path(3);
        let _ = ShardedExecutor::new(cfg).run(&g, &NeverBuilt);
    }

    #[test]
    fn resumed_round_budget_counts_total_rounds() {
        let g = generators::cycle(6);
        let program = Mixer { rounds: 20 };
        let (_, _, captured) = journal(&layouts(1)[1], &g, &program, 5);

        // A budget the full run exceeds must still fail after a resume from
        // round 5 — the budget meters total rounds, not rounds since resume.
        let tight = ShardedExecutor::new(ShardedConfig {
            max_rounds: 10,
            ..ShardedConfig::default()
        });
        let mut sink = NullSink;
        let mut session = tight
            .open(&g, &program, Some(captured[0].0.clone()), &mut sink)
            .unwrap();
        let err = loop {
            match session.step() {
                Ok(Some(round)) => assert!(round <= 10),
                Ok(None) => panic!("a 20-round run cannot finish within 10"),
                Err(err) => break err,
            }
        };
        assert_eq!(err, RuntimeError::RoundLimit { limit: 10 });
        // A checkpoint already past the budget is refused up front.
        let err = tight
            .open(&g, &program, Some(captured[2].0.clone()), &mut sink)
            .err();
        assert!(matches!(
            err,
            Some(RuntimeError::CheckpointMismatch {
                expected: 10,
                found: 15,
                ..
            })
        ));
    }
}
