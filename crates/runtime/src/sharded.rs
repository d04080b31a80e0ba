//! The sharded CSR executor: the production engine for the round-synchronous
//! CONGEST semantics — the ones the reference stepper [`crate::Executor`]
//! spells out plainly — structured for million-vertex graphs.
//!
//! # Architecture
//!
//! Vertices are partitioned into `shards` contiguous ranges. Each shard owns
//! its slice of every per-vertex array — states, halted flags, and
//! **shard-local double-buffered mailboxes** — so the per-round sweep is a
//! rayon-parallel pass over shards with no shared mutable state. Outgoing
//! sends are routed exchange-style: each shard buckets its sends by
//! destination shard during the sweep, and a delivery pass concatenates the
//! buckets addressed to each shard **in ascending source-shard order**.
//! Because shards are ascending vertex ranges and every shard commits its
//! vertices in ascending order, each destination mailbox receives messages in
//! ascending sender order — exactly the inbox ordering the reference
//! stepper's sequential commit produces. All mailbox, bucket and send
//! `Vec`s are pooled across rounds (cleared, never dropped), so a
//! steady-state round allocates nothing; [`ArenaStats`] reports the pools'
//! high-water marks as a peak-memory proxy.
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
//! program code. Delivery likewise remembers which mailboxes it filled and
//! clears only those next round; and the run is over when the drained wake
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
//! A [`Session`] ([`ShardedExecutor::start`]) advances one sealed round per
//! [`Session::step`] and can be captured at any round boundary. The capture,
//! [`ExecCheckpoint`], is **representation-independent**: states and halted
//! flags in vertex order, the readable mailboxes per vertex in ascending
//! sender order (mail resident at halted vertices included), the meter's
//! parts and the round — nothing about shards, threads or pooled buffers,
//! and no RNG position (streams are re-derived from `(seed, vertex, round)`)
//! — so it restores under any layout and its `mfd-replay` bytes are stable.
//!
//! [`ShardedExecutor::restore`] splits it back into shards and rebuilds what
//! is derived: the `filled` lists and the wake set — recomputable because it
//! is *defined* by the full-scan predicate (live, and holding mail or not
//! quiescent at the next round) that debug builds assert it equal to every
//! round. A checkpoint is decoded from bytes, so it is outside input: wrong
//! lengths, mail from a non-neighbour or a round past the budget are a
//! [`RuntimeError::CheckpointMismatch`], never a panic. The round budget
//! counts total rounds, not rounds since the resume.

use std::time::Instant;

use mfd_congest::{CongestError, MeterParts, RoundMeter};
use mfd_graph::CsrGraph;
use mfd_trace::{EngineKind, Event, NullSink, RunObserver};
use rayon::prelude::*;

use crate::driver::{self, VertexRound};
use crate::executor::{ExecutorConfig, RuntimeError};
use crate::profile::{
    NoProfiler, Profiler, RoundSample, PHASE_COMMIT, PHASE_DELIVER, PHASE_EXCHANGE, PHASE_ROUTE,
    PHASE_SCAN, PHASE_STEP,
};
use crate::program::{Envelope, NodeCtx, NodeProgram, SendBuf};

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
/// memory proxy (counts of live [`Envelope`] slots, not bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Peak envelopes resident in the delivery mailboxes after any round's
    /// exchange.
    pub mailbox_slots_hwm: usize,
    /// Peak envelopes staged in the exchange route buckets after any round's
    /// sweep.
    pub route_slots_hwm: usize,
}

/// The complete loop state at a round boundary, as plain data in vertex
/// order (module docs, "Checkpoints"): captured by [`Session::checkpoint`],
/// consumed by [`ShardedExecutor::restore`], encoded by `mfd-replay`.
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

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Runs `program` on every vertex of `g` until all vertices halt.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Model`] on a CONGEST violation,
    /// [`RuntimeError::RoundLimit`] past the round budget.
    pub fn run<P: NodeProgram>(
        &self,
        g: &CsrGraph,
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
        g: &CsrGraph,
        program: &P,
        observer: &mut O,
    ) -> Result<ShardedExecution<P::State>, RuntimeError> {
        self.run_profiled(g, program, observer, &mut NoProfiler)
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
    /// unprofiled one (states, meter, digest chain). With [`NoProfiler`]
    /// this *is* [`ShardedExecutor::run_traced`]: every hook site is guarded
    /// by the monomorphized [`Profiler::ENABLED`] constant.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardedExecutor::run`].
    pub fn run_profiled<P, O, PR>(
        &self,
        g: &CsrGraph,
        program: &P,
        observer: &mut O,
        profiler: &mut PR,
    ) -> Result<ShardedExecution<P::State>, RuntimeError>
    where
        P: NodeProgram,
        O: RunObserver<P::State>,
        PR: Profiler,
    {
        self.install(|| {
            let mut engine = ShardedEngine::fresh(&self.config, g, program, observer, profiler);
            engine.drive()?;
            engine.seal_profile();
            Ok(engine.finish())
        })
    }

    /// [`ShardedExecutor::run_traced`] one round at a time: a [`Session`]
    /// held at round 0 (states initialized, initial configuration sealed).
    pub fn start<'a, P, O>(
        &'a self,
        g: &'a CsrGraph,
        program: &'a P,
        observer: &'a mut O,
    ) -> Session<'a, P, O>
    where
        P: NodeProgram,
        O: RunObserver<P::State>,
    {
        let engine =
            self.install(|| ShardedEngine::fresh(&self.config, g, program, observer, NoProfiler));
        Session { exec: self, engine }
    }

    /// A [`Session`] whose next step executes round `checkpoint.round + 1`.
    /// Nothing is re-sealed or replayed: to continue a digest chain, restore
    /// the sink alongside (`mfd_trace::DigestSink::restore`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] (module docs, "Checkpoints").
    pub fn restore<'a, P, O>(
        &'a self,
        g: &'a CsrGraph,
        program: &'a P,
        checkpoint: ExecCheckpoint<P::State, P::Msg>,
        observer: &'a mut O,
    ) -> Result<Session<'a, P, O>, RuntimeError>
    where
        P: NodeProgram,
        O: RunObserver<P::State>,
    {
        let engine = self.install(|| {
            ShardedEngine::restored(&self.config, g, program, observer, NoProfiler, checkpoint)
        })?;
        Ok(Session { exec: self, engine })
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// A run held at a round boundary ([`ShardedExecutor::start`] / `restore`):
/// journaling, time travel and kill-and-resume compose from its four methods.
pub struct Session<'a, P: NodeProgram, O> {
    exec: &'a ShardedExecutor,
    engine: ShardedEngine<'a, P, O, NoProfiler>,
}

impl<P: NodeProgram, O: RunObserver<P::State>> Session<'_, P, O> {
    /// Executes one round inside the executor's pool and returns its number,
    /// or `None` once the run is over. An error ends the session.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardedExecutor::run`].
    pub fn step(&mut self) -> Result<Option<u64>, RuntimeError> {
        let stepped = self.exec.install(|| self.engine.step())?;
        Ok(matches!(stepped, Stepped::Sealed).then_some(self.engine.round))
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
            inbox: shards.iter().flat_map(|s| &s.inbox).cloned().collect(),
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

/// Sets local vertex `local`'s bit in a shard's wake set: schedules it for the
/// next round. Called at the only two places a vertex can become schedulable
/// — right after it was stepped and is neither halted nor quiescent, and when
/// the first envelope lands in a live vertex's mailbox — so the set costs
/// nothing for the vertices a round does not touch.
fn wake_vertex(wake: &mut [u64], local: usize) {
    wake[local / 64] |= 1 << (local % 64);
}

/// One destination-shard bucket: `(destination vertex, envelope)` in send
/// order.
type Bucket<M> = Vec<(usize, Envelope<M>)>;

/// One shard's slice of the engine state: everything indexed by local vertex
/// (`global = start + local`), plus the pooled per-round buffers.
struct ShardState<S, M> {
    start: usize,
    end: usize,
    states: Vec<S>,
    halted: Vec<bool>,
    inbox: Vec<Vec<Envelope<M>>>,
    next_inbox: Vec<Vec<Envelope<M>>>,
    /// Local indices whose `inbox` mailbox is non-empty, in first-envelope
    /// order: the only mailboxes the next delivery has to clear.
    filled: Vec<usize>,
    /// The same for `next_inbox`; empty between rounds, pooled.
    filled_next: Vec<usize>,
    /// The wake set, one bit per local vertex: exactly the vertices the next
    /// round schedules (see [`wake_vertex`] for who sets a bit).
    wake: Vec<u64>,
    /// This round's active vertices (ascending local indices), pooled.
    active: Vec<usize>,
    /// Outgoing buckets, one per destination shard, pooled.
    out: Vec<Bucket<M>>,
    /// Incoming buckets, one per source shard, staged between sweep and
    /// delivery.
    in_buckets: Vec<Bucket<M>>,
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
    /// Messages this shard sent this round.
    msgs: u64,
    /// Largest per-directed-edge word load this shard produced this round.
    max_on_edge: usize,
    /// First non-edge send this round (vertex order), if any.
    send_violation: Option<CongestError>,
    /// First bandwidth overcommitment this round (vertex order), if any.
    bw_violation: Option<CongestError>,
}

impl<S: Send + Sync, M: Send + Sync> ShardState<S, M> {
    /// Drains the wake set into this round's active list (ascending local
    /// index, by word and bit order) and reports the active count.
    fn scan(&mut self) -> usize {
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
        self.active.len()
    }

    /// The wake set's definition: the vertices `round` schedules, by the
    /// full scan — every live vertex with mail or a non-quiescent state.
    /// `restored` rebuilds the wake set from it; debug builds assert it.
    fn full_scan<P>(&self, program: &P, g: &CsrGraph, n: usize, round: u64, seed: u64) -> Vec<usize>
    where
        P: NodeProgram<State = S, Msg = M>,
    {
        (0..self.end - self.start)
            .filter(|&local| {
                let v = self.start + local;
                !self.halted[local]
                    && (!self.inbox[local].is_empty()
                        || !program.quiescent(
                            &NodeCtx::new(v, n, round, g.neighbors(v), seed),
                            &self.states[local],
                        ))
            })
            .collect()
    }

    /// Asserts [`ShardState::scan`]'s output equal to [`ShardState::full_scan`]
    /// — on every shard of every round in debug builds, so the test suite
    /// checks [`NodeProgram::quiescent`]'s round-stability on every run.
    #[cfg(debug_assertions)]
    fn assert_scan_matches_full_scan<P>(
        &self,
        program: &P,
        g: &CsrGraph,
        n: usize,
        round: u64,
        seed: u64,
    ) where
        P: NodeProgram<State = S, Msg = M>,
    {
        assert_eq!(
            self.active,
            self.full_scan(program, g, n, round, seed),
            "round {round}, shard at {}: wake set != full scan (a `quiescent` whose answer \
             for an unstepped vertex depends on the round breaks the engine's contract)",
            self.start
        );
    }

    /// Runs one round on this shard's active vertices, bucketing sends by
    /// destination shard and accounting bandwidth per directed edge.
    #[allow(clippy::too_many_arguments)]
    fn sweep<P>(
        &mut self,
        program: &P,
        g: &CsrGraph,
        n: usize,
        round: u64,
        seed: u64,
        chunk: usize,
        capacity_words: usize,
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
            let neighbors = g.neighbors(v);
            let ctx = NodeCtx::new(v, n, round, neighbors, seed);
            let VertexRound {
                mut sends,
                halted,
                violation,
            } = driver::step_vertex(
                program,
                &ctx,
                &mut self.states[local],
                &self.inbox[local],
                std::mem::take(&mut self.sends),
            );
            // The one place this vertex's scheduling is decided until mail
            // next reaches it: its state cannot change before then.
            if halted {
                self.halted[local] = true;
            } else if !program.quiescent(&ctx.at_round(round + 1), &self.states[local]) {
                wake_vertex(&mut self.wake, local);
            }
            if let (None, Some(err)) = (&self.send_violation, violation) {
                self.send_violation = Some(err);
            }
            if trace {
                self.meta
                    .push((local, self.inbox[local].len(), sends.msgs.len()));
                if let Some(digest) = digest_of {
                    self.digests.push(digest(&self.states[local]));
                }
            }
            // Per-edge bandwidth: each directed edge (v, dst) is loaded only
            // by sends from this vertex, so a local accumulator over the
            // neighbor slice accounts it exactly.
            if self.scratch.len() < neighbors.len() {
                self.scratch.resize(neighbors.len(), 0);
            }
            self.touched.clear();
            self.msgs += sends.msgs.len() as u64;
            debug_assert_eq!(sends.slots.len(), sends.msgs.len());
            for (&(_, _, words), &idx) in sends.msgs.iter().zip(&sends.slots) {
                if self.scratch[idx] == 0 {
                    self.touched.push(idx);
                }
                self.scratch[idx] += words;
            }
            for &idx in &self.touched {
                let load = self.scratch[idx];
                self.scratch[idx] = 0;
                self.max_on_edge = self.max_on_edge.max(load);
                if load > capacity_words && self.bw_violation.is_none() {
                    self.bw_violation = Some(CongestError::BandwidthExceeded {
                        src: v,
                        dst: neighbors[idx],
                        words: load,
                        capacity: capacity_words,
                    });
                }
            }
            for (dst, msg, _) in sends.msgs.drain(..) {
                self.out[dst / chunk].push((dst, Envelope { src: v, msg }));
            }
            self.sends = sends;
        }
    }

    /// Envelopes staged in this shard's outgoing buckets.
    fn route_slots(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Clears the mailboxes the last round read (only the `filled` ones can
    /// hold anything), drains the staged incoming buckets (ascending source
    /// shard, so ascending sender order) into the next-round mailboxes —
    /// noting each mailbox it makes non-empty and waking its vertex unless
    /// halted (mail to a halted vertex is resident, counted, and dropped by
    /// the next clear) — then swaps the double buffer. Returns the envelopes
    /// now resident in the readable mailboxes.
    fn deliver(&mut self) -> usize {
        let ShardState {
            start,
            in_buckets,
            inbox,
            next_inbox,
            filled,
            filled_next,
            halted,
            wake,
            ..
        } = self;
        for local in filled.drain(..) {
            inbox[local].clear();
        }
        let mut resident = 0;
        for bucket in in_buckets.iter_mut() {
            resident += bucket.len();
            for (dst, env) in bucket.drain(..) {
                let local = dst - *start;
                let mailbox = &mut next_inbox[local];
                if mailbox.is_empty() {
                    filled_next.push(local);
                    if !halted[local] {
                        wake_vertex(wake, local);
                    }
                }
                mailbox.push(env);
            }
        }
        std::mem::swap(inbox, next_inbox);
        std::mem::swap(filled, filled_next);
        resident
    }
}

/// One step outcome.
enum Stepped {
    Sealed,
    Done,
}

struct ShardedEngine<'a, P: NodeProgram, O, PR> {
    g: &'a CsrGraph,
    program: &'a P,
    observer: &'a mut O,
    profiler: PR,
    /// Wall-clock origin of the run; all profile offsets are relative to it.
    run_start: Instant,
    /// Pooled per-round profile sample (only populated when `PR::ENABLED`).
    sample: RoundSample,
    n: usize,
    seed: u64,
    max_rounds: u64,
    capacity_words: usize,
    /// Vertices per shard (`shard_of(v) = v / chunk`).
    chunk: usize,
    shards: Vec<ShardState<P::State, P::Msg>>,
    /// Bucket transfer matrix, `xfer[dst][src]`, pooled across rounds.
    xfer: Vec<Vec<Bucket<P::Msg>>>,
    meter: RoundMeter,
    arena: ArenaStats,
    round: u64,
}

impl<'a, P, O, PR> ShardedEngine<'a, P, O, PR>
where
    P: NodeProgram,
    O: RunObserver<P::State>,
    PR: Profiler,
{
    /// The engine at round 0 with its vertices split into `config.shards`
    /// contiguous ranges (at least one) whose per-vertex state the caller
    /// fills in: `states`, `halted` and the wake sets are still empty.
    fn assemble(
        config: &ShardedConfig,
        g: &'a CsrGraph,
        program: &'a P,
        observer: &'a mut O,
        profiler: PR,
    ) -> Self {
        let n = g.n();
        let num_shards = config.shards.max(1);
        let chunk = n.div_ceil(num_shards).max(1);
        let shards = (0..num_shards)
            .map(|s| {
                let start = (s * chunk).min(n);
                let end = ((s + 1) * chunk).min(n);
                ShardState {
                    start,
                    end,
                    states: Vec::new(),
                    halted: Vec::new(),
                    inbox: (start..end).map(|_| Vec::new()).collect(),
                    next_inbox: (start..end).map(|_| Vec::new()).collect(),
                    filled: Vec::new(),
                    filled_next: Vec::new(),
                    wake: vec![0; (end - start).div_ceil(64)],
                    active: Vec::new(),
                    out: (0..num_shards).map(|_| Vec::new()).collect(),
                    in_buckets: Vec::new(),
                    scratch: Vec::new(),
                    touched: Vec::new(),
                    sends: SendBuf::with_slots(),
                    meta: Vec::new(),
                    digests: Vec::new(),
                    msgs: 0,
                    max_on_edge: 0,
                    send_violation: None,
                    bw_violation: None,
                }
            })
            .collect();
        ShardedEngine {
            g,
            program,
            observer,
            profiler,
            run_start: Instant::now(),
            sample: RoundSample::default(),
            n,
            seed: config.seed,
            max_rounds: config
                .max_rounds
                .min(program.round_budget_hint().unwrap_or(u64::MAX)),
            capacity_words: config.capacity_words,
            chunk,
            shards,
            xfer: (0..num_shards)
                .map(|_| (0..num_shards).map(|_| Vec::new()).collect())
                .collect(),
            meter: RoundMeter::with_capacity(config.capacity_words),
            arena: ArenaStats::default(),
            round: 0,
        }
    }

    /// Rebuilds the loop state from a checkpoint — no `init`, no round-0
    /// seal — after checking it against `g` and the round budget.
    fn restored(
        config: &ShardedConfig,
        g: &'a CsrGraph,
        program: &'a P,
        observer: &'a mut O,
        profiler: PR,
        cp: ExecCheckpoint<P::State, P::Msg>,
    ) -> Result<Self, RuntimeError> {
        let (n, seed, round) = (g.n(), config.seed, cp.round);
        let mismatch = |what, expected: u64, found: u64| RuntimeError::CheckpointMismatch {
            what,
            expected,
            found,
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
        let mut engine = Self::assemble(config, g, program, observer, profiler);
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
            shard.inbox = inbox.by_ref().take(len).collect();
            shard.filled = (0..len).filter(|&l| !shard.inbox[l].is_empty()).collect();
            for local in shard.full_scan(program, g, n, round + 1, seed) {
                wake_vertex(&mut shard.wake, local);
            }
        }
        Ok(engine)
    }

    fn fresh(
        config: &ShardedConfig,
        g: &'a CsrGraph,
        program: &'a P,
        observer: &'a mut O,
        profiler: PR,
    ) -> Self {
        let n = g.n();
        let seed = config.seed;
        let mut engine = Self::assemble(config, g, program, observer, profiler);
        // Parallel init of states, halted flags and the round-1 wake set (no
        // mail yet: the live non-quiescent vertices), shard by shard.
        let _: Vec<()> = engine
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(_, shard)| {
                shard.states = (shard.start..shard.end)
                    .map(|v| program.init(&NodeCtx::new(v, n, 0, g.neighbors(v), seed)))
                    .collect();
                shard.halted = (shard.start..shard.end)
                    .map(|v| {
                        program.halted(
                            &NodeCtx::new(v, n, 0, g.neighbors(v), seed),
                            &shard.states[v - shard.start],
                        )
                    })
                    .collect();
                for local in shard.full_scan(program, g, n, 1, seed) {
                    wake_vertex(&mut shard.wake, local);
                }
            })
            .collect();

        // Round 0: digest the initial configuration, exactly as the
        // reference stepper does. Hashing runs in parallel over shards;
        // delivery stays sequential and in ascending vertex order.
        if O::ENABLED {
            if engine.observer.wants_digests() {
                let digests: Vec<Vec<u64>> = engine
                    .shards
                    .par_iter()
                    .map(|shard| shard.states.iter().map(|s| O::state_digest(s)).collect())
                    .collect();
                for (shard, shard_digests) in engine.shards.iter().zip(digests) {
                    for (local, digest) in shard_digests.into_iter().enumerate() {
                        engine.observer.vertex_digest(
                            EngineKind::Executor,
                            0,
                            shard.start + local,
                            digest,
                        );
                    }
                }
            }
            engine.observer.round_sealed(EngineKind::Executor, 0);
        }
        if PR::ENABLED {
            // The effective worker count: the installed pool's size, or all
            // available threads when no dedicated pool was built.
            let threads = rayon::current_num_threads().max(1);
            let init_ns = engine.offset_ns();
            engine.profiler.begin(engine.shards.len(), threads, init_ns);
        }
        engine
    }

    fn drive(&mut self) -> Result<(), RuntimeError> {
        while let Stepped::Sealed = self.step()? {}
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

    /// Executes one full round: parallel wake-set drain, parallel shard sweep,
    /// sequential violation/observer/meter resolution, parallel exchange
    /// delivery, buffer swap.
    fn step(&mut self) -> Result<Stepped, RuntimeError> {
        let round = self.round + 1;
        let (n, seed, chunk) = (self.n, self.seed, self.chunk);
        let program = self.program;
        let g = self.g;
        if PR::ENABLED {
            self.sample.reset(round);
            let now = self.offset_ns();
            self.sample.start_ns = now;
            self.sample.phase_start_ns[PHASE_SCAN] = now;
        }
        // Scan (parallel over shards): each shard drains its wake set into
        // its active list. The per-shard busy timestamp rides in that
        // shard's result slot, so profiling adds no shared state to the
        // parallel pass.
        let scans: Vec<(usize, u64)> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(_, shard)| {
                let busy = PR::ENABLED.then(Instant::now);
                let active = shard.scan();
                #[cfg(debug_assertions)]
                shard.assert_scan_matches_full_scan(program, g, n, round, seed);
                (active, busy.map_or(0, |b| b.elapsed().as_nanos() as u64))
            })
            .collect();
        if PR::ENABLED {
            self.sample.phase_wall_ns[PHASE_SCAN] =
                self.offset_ns() - self.sample.phase_start_ns[PHASE_SCAN];
            self.sample
                .shard_scan_ns
                .extend(scans.iter().map(|&(_, ns)| ns));
            self.sample.frontier.extend(scans.iter().map(|&(a, _)| a));
        }
        // Done when nothing is scheduled: every vertex has halted (only live
        // vertices are ever woken), or the fixpoint — live vertices remain
        // but none has mail or anything left to do.
        let active: usize = scans.iter().map(|&(a, _)| a).sum();
        if active == 0 {
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
                active,
            });
        }
        // Parallel shard sweep over the active frontier only. When the
        // observer wants digests, each shard also hashes the states it just
        // stepped (the digests ride in the shard's own result slot) so the
        // sequential commit point below only delivers precomputed values.
        let capacity = self.capacity_words;
        let want_digests = O::ENABLED && self.observer.wants_digests();
        let digest_of: Option<fn(&P::State) -> u64> =
            want_digests.then_some(O::state_digest as fn(&P::State) -> u64);
        if PR::ENABLED {
            self.sample.phase_start_ns[PHASE_STEP] = self.offset_ns();
        }
        let sweeps: Vec<u64> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(_, shard)| {
                if PR::ENABLED {
                    let busy = Instant::now();
                    shard.sweep(
                        program,
                        g,
                        n,
                        round,
                        seed,
                        chunk,
                        capacity,
                        O::ENABLED,
                        digest_of,
                    );
                    busy.elapsed().as_nanos() as u64
                } else {
                    shard.sweep(
                        program,
                        g,
                        n,
                        round,
                        seed,
                        chunk,
                        capacity,
                        O::ENABLED,
                        digest_of,
                    );
                    0
                }
            })
            .collect();

        // Sequential resolution, in vertex order by construction (shards are
        // ascending vertex ranges): non-edge sends first, then bandwidth —
        // the same precedence as the reference stepper.
        if PR::ENABLED {
            let now = self.offset_ns();
            self.sample.phase_wall_ns[PHASE_STEP] = now - self.sample.phase_start_ns[PHASE_STEP];
            self.sample.phase_start_ns[PHASE_COMMIT] = now;
            self.sample.shard_step_ns.extend(sweeps);
            // Structural per-shard series, read at this sequential point
            // while the route buckets are still populated: sent counts, the
            // staged route-slot series, and the shard→shard traffic matrix
            // straight from the router's destination buckets.
            let num_shards = self.shards.len();
            for shard in &self.shards {
                self.sample.sent.push(shard.msgs);
                self.sample.route_slots.push(shard.route_slots());
            }
            self.sample.traffic.reserve(num_shards * num_shards);
            for shard in &self.shards {
                for dst in 0..num_shards {
                    self.sample.traffic.push(shard.out[dst].len() as u64);
                }
            }
        }
        if let Some(err) = self.shards.iter().find_map(|s| s.send_violation.clone()) {
            return Err(RuntimeError::Model(err));
        }
        let route_slots: usize = self.shards.iter().map(ShardState::route_slots).sum();
        self.arena.route_slots_hwm = self.arena.route_slots_hwm.max(route_slots);
        let messages: u64 = self.shards.iter().map(|s| s.msgs).sum();
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
            if PR::ENABLED {
                let seal_start = Instant::now();
                self.observer.round_sealed(EngineKind::Executor, round);
                self.sample.seal_ns = seal_start.elapsed().as_nanos() as u64;
            } else {
                self.observer.round_sealed(EngineKind::Executor, round);
            }
        }

        // Exchange: move each shard's outgoing buckets into the transfer
        // matrix (O(shards²) pointer moves, payloads untouched), hand every
        // destination its column, deliver in parallel, then return the
        // emptied buckets to their owners for reuse.
        if PR::ENABLED {
            let now = self.offset_ns();
            self.sample.phase_wall_ns[PHASE_COMMIT] =
                now - self.sample.phase_start_ns[PHASE_COMMIT];
            self.sample.phase_start_ns[PHASE_ROUTE] = now;
        }
        {
            let (shards, xfer) = (&mut self.shards, &mut self.xfer);
            for (s, shard) in shards.iter_mut().enumerate() {
                for (d, bucket) in shard.out.iter_mut().enumerate() {
                    xfer[d][s] = std::mem::take(bucket);
                }
            }
            for (d, shard) in shards.iter_mut().enumerate() {
                shard.in_buckets = std::mem::take(&mut xfer[d]);
            }
        }
        if PR::ENABLED {
            let now = self.offset_ns();
            self.sample.phase_wall_ns[PHASE_ROUTE] = now - self.sample.phase_start_ns[PHASE_ROUTE];
            self.sample.phase_start_ns[PHASE_DELIVER] = now;
        }
        let delivered: Vec<(usize, u64)> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(_, shard)| {
                if PR::ENABLED {
                    let busy = Instant::now();
                    let resident = shard.deliver();
                    (resident, busy.elapsed().as_nanos() as u64)
                } else {
                    (shard.deliver(), 0)
                }
            })
            .collect();
        let mailbox_slots: usize = delivered.iter().map(|&(resident, _)| resident).sum();
        self.arena.mailbox_slots_hwm = self.arena.mailbox_slots_hwm.max(mailbox_slots);
        if PR::ENABLED {
            let now = self.offset_ns();
            self.sample.phase_wall_ns[PHASE_DELIVER] =
                now - self.sample.phase_start_ns[PHASE_DELIVER];
            self.sample.phase_start_ns[PHASE_EXCHANGE] = now;
            self.sample
                .delivered
                .extend(delivered.iter().map(|&(resident, _)| resident));
            self.sample
                .shard_deliver_ns
                .extend(delivered.iter().map(|&(_, ns)| ns));
        }
        {
            let (shards, xfer) = (&mut self.shards, &mut self.xfer);
            for (d, shard) in shards.iter_mut().enumerate() {
                xfer[d] = std::mem::take(&mut shard.in_buckets);
            }
            for (s, shard) in shards.iter_mut().enumerate() {
                for (d, row) in xfer.iter_mut().enumerate() {
                    shard.out[d] = std::mem::take(&mut row[s]);
                }
            }
        }
        if PR::ENABLED {
            let now = self.offset_ns();
            self.sample.phase_wall_ns[PHASE_EXCHANGE] =
                now - self.sample.phase_start_ns[PHASE_EXCHANGE];
            self.sample.wall_ns = now - self.sample.start_ns;
            self.profiler.record_round(&self.sample);
        }
        Ok(Stepped::Sealed)
    }

    fn finish(self) -> ShardedExecution<P::State> {
        let mut states = Vec::with_capacity(self.n);
        for shard in self.shards {
            states.extend(shard.states);
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
        let csr = CsrGraph::from_graph(g);
        let exec_cfg = ExecutorConfig::default();
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
                    .run_traced(&csr, program, &mut sink)
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
        let csr = CsrGraph::from_graph(&generators::path(5));
        let err = ShardedExecutor::new(ShardedConfig::default())
            .run(&csr, &NonEdgeSender)
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
        let csr = CsrGraph::from_graph(&generators::path(3));
        let err = ShardedExecutor::new(ShardedConfig::default())
            .run(&csr, &DoubleSender)
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
        ShardedExecutor::new(cfg).run(&csr, &DoubleSender).unwrap();
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
        let csr = CsrGraph::from_graph(&generators::path(3));
        let cfg = ShardedConfig {
            max_rounds: 10,
            ..ShardedConfig::default()
        };
        assert_eq!(
            ShardedExecutor::new(cfg).run(&csr, &Spinner).unwrap_err(),
            RuntimeError::RoundLimit { limit: 10 }
        );
    }

    #[test]
    fn empty_graph_finishes_immediately() {
        let csr = CsrGraph::from_graph(&mfd_graph::Graph::new(0));
        let run = ShardedExecutor::new(ShardedConfig::default())
            .run(&csr, &Mixer { rounds: 3 })
            .unwrap();
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages, 0);
        assert_eq!(run.arena, ArenaStats::default());
    }

    #[test]
    fn arena_high_water_marks_are_deterministic_and_positive() {
        let csr = CsrGraph::from_graph(&generators::triangulated_grid(8, 8));
        let program = Mixer { rounds: 4 };
        let runs: Vec<ArenaStats> = [1, 4]
            .iter()
            .map(|&threads| {
                ShardedExecutor::new(ShardedConfig::with_shards_threads(4, threads))
                    .run(&csr, &program)
                    .unwrap()
                    .arena
            })
            .collect();
        assert_eq!(runs[0], runs[1], "hwm must be thread-count-invariant");
        // Every broadcast round stages 2m envelopes, all delivered.
        assert_eq!(runs[0].route_slots_hwm, 2 * csr.m());
        assert_eq!(runs[0].mailbox_slots_hwm, 2 * csr.m());
    }

    /// The layouts the checkpoint tests cross: one shard, uneven shards, more
    /// shards than most shards have vertices; one thread and several.
    fn layouts() -> Vec<ShardedExecutor> {
        [(1, 1), (3, 4), (64, 1)]
            .iter()
            .map(|&(s, t)| ShardedExecutor::new(ShardedConfig::with_shards_threads(s, t)))
            .collect()
    }

    /// Steps a fresh session to the end, capturing `(checkpoint, sink
    /// export)` every `every` rounds.
    #[allow(clippy::type_complexity)]
    fn journal<P>(
        exec: &ShardedExecutor,
        csr: &CsrGraph,
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
        let mut session = exec.start(csr, program, &mut sink);
        while let Some(round) = session.step().unwrap() {
            if round % every == 0 {
                captured.push((session.checkpoint(), session.observer().export()));
            }
        }
        (session.finish(), sink, captured)
    }

    #[test]
    fn resume_from_any_checkpoint_matches_the_uninterrupted_run() {
        let g = generators::triangulated_grid(6, 6);
        let csr = CsrGraph::from_graph(&g);
        let program = Mixer { rounds: 9 };
        let mut reference_sink = DigestSink::new();
        let full = Executor::new(ExecutorConfig::default())
            .run_traced(&g, &program, &mut reference_sink)
            .unwrap();

        for exec in layouts() {
            let (run, sink, captured) = journal(&exec, &csr, &program, 2);
            assert_eq!(run.states, full.states);
            assert_eq!(run.meter.to_parts(), full.meter.to_parts());
            assert_eq!(sink.chain(), reference_sink.chain());
            // Captures at rounds 2, 4, 6, 8 (the run ends in round 9).
            let rounds: Vec<u64> = captured.iter().map(|(cp, _)| cp.round).collect();
            assert_eq!(rounds, vec![2, 4, 6, 8]);

            // Every capture resumes on every layout, not only its own.
            for (cp, digest_state) in captured {
                for other in layouts() {
                    let mut sink = DigestSink::restore(digest_state.clone());
                    let mut session = other
                        .restore(&csr, &program, cp.clone(), &mut sink)
                        .unwrap();
                    assert_eq!(session.step().unwrap(), Some(cp.round + 1));
                    while session.step().unwrap().is_some() {}
                    let resumed = session.finish();
                    assert_eq!(resumed.states, full.states);
                    assert_eq!(resumed.meter.to_parts(), full.meter.to_parts());
                    assert_eq!(sink.chain(), reference_sink.chain());
                }
            }
        }
    }

    #[test]
    fn resumed_round_budget_counts_total_rounds() {
        let csr = CsrGraph::from_graph(&generators::cycle(6));
        let program = Mixer { rounds: 20 };
        let (_, _, captured) = journal(&layouts()[1], &csr, &program, 5);

        // A budget the full run exceeds must still fail after a resume from
        // round 5 — the budget meters total rounds, not rounds since resume.
        let tight = ShardedExecutor::new(ShardedConfig {
            max_rounds: 10,
            ..ShardedConfig::default()
        });
        let mut sink = NullSink;
        let mut session = tight
            .restore(&csr, &program, captured[0].0.clone(), &mut sink)
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
            .restore(&csr, &program, captured[2].0.clone(), &mut sink)
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
