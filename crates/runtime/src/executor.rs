//! The reference stepper: the synchronous round semantics in their plainest
//! form — one parallel vertex sweep and one sequential, vertex-ordered commit
//! per round over a [`Graph`]; no shards, wake sets, pooled
//! buffers or checkpoints. [`crate::ShardedExecutor`] must equal it bit for
//! bit (states, meters, event streams, digest chains): the differential
//! tests, `mfd_sim::run_both` and the benchmarks' in-process "≡ reference"
//! assertions call it; nothing on a product path does. The shared model
//! types ([`ExecutorConfig`], [`RuntimeError`], [`Execution`]) live here too.

use std::fmt;

use mfd_congest::{CongestError, Message, RoundMeter};
use mfd_graph::Graph;
use mfd_trace::{EngineKind, Event, NullSink, RunObserver};
use rayon::prelude::*;

use crate::driver::{self, VertexRound};
use crate::program::{Envelope, NodeCtx, NodeProgram, SendBuf};

/// The synchronous model parameters of a run; [`crate::ShardedConfig`]'s
/// `matching` / `per_thread` constructors add only the shard layout.
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
    /// A checkpoint handed to [`crate::SessionEngine::open`] does not fit the
    /// graph or round budget: decoded input, so an error, not a panic.
    CheckpointMismatch {
        /// Which property of the checkpoint is wrong.
        what: &'static str,
        /// What the restoring run requires (non-neighbour mail: the receiver;
        /// a `"program state"` that does not fit: its vertex).
        expected: u64,
        /// What the checkpoint carries (non-neighbour mail: the sender; a
        /// `"program state"`: its vertex's degree).
        found: u64,
    },
    /// An event engine's packet would arrive past the last tick a `u64`
    /// holds.
    ClockOverflow {
        /// The tick the packet was sent at.
        now: u64,
        /// Its delay in ticks.
        delay: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Model(e) => write!(f, "CONGEST model violation: {e}"),
            RuntimeError::RoundLimit { limit } => {
                write!(f, "program did not halt within {limit} rounds")
            }
            RuntimeError::CheckpointMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {what} (expected {expected}, found {found})"
            ),
            RuntimeError::ClockOverflow { now, delay } => write!(
                f,
                "simulated clock overflow: a packet sent at tick {now} with delay {delay}"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result of a completed reference execution.
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

/// The reference implementation of the synchronous CONGEST round semantics
/// (see the module docs for its role).
///
/// Each round, every *active* vertex — non-halted, with mail or not
/// [`NodeProgram::quiescent`], found by a full scan — is run in parallel,
/// its sends are committed sequentially in vertex order, and the complete
/// round is submitted to a [`RoundMeter`], which rejects any round the
/// CONGEST model would not allow. An empty active set is a fixpoint and ends
/// the run. Runs are bit-for-bit deterministic in the thread count.
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

    /// [`Executor::run`] with an observer (see `mfd-trace`). Every hook —
    /// events, [`RunObserver::vertex_state`], seals — fires at the sequential
    /// commit points in vertex order, never inside the parallel sweep.
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
        match &self.pool {
            Some(pool) => pool.install(|| self.drive(g, program, observer)),
            None => self.drive(g, program, observer),
        }
    }

    fn drive<P: NodeProgram, O: RunObserver<P::State>>(
        &self,
        g: &Graph,
        program: &P,
        observer: &mut O,
    ) -> Result<Execution<P::State>, RuntimeError> {
        const ENGINE: EngineKind = EngineKind::Executor;
        let (n, seed) = (g.n(), self.config.seed);
        let max_rounds = self
            .config
            .max_rounds
            .min(program.round_budget_hint().unwrap_or(u64::MAX));
        let mut states: Vec<P::State> = (0..n)
            .into_par_iter()
            .map(|v| program.init(&NodeCtx::new(v, n, 0, g.neighbors(v), seed)))
            .collect();
        let mut halted: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|v| program.halted(&NodeCtx::new(v, n, 0, g.neighbors(v), seed), &states[v]))
            .collect();
        // Round 0 is the initial configuration: digest every vertex once so
        // two runs that differ already at init diverge at round 0, not 1.
        if O::ENABLED {
            for (v, state) in states.iter().enumerate() {
                observer.vertex_state(ENGINE, 0, v, state);
            }
            observer.round_sealed(ENGINE, 0);
        }
        let mut inbox: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let mut meter = RoundMeter::with_capacity(self.config.capacity_words);
        let mut round = 0u64;

        while !halted.iter().all(|&h| h) {
            round += 1;
            // An empty active set is a fixpoint and ends the run *before* the
            // round-budget check: a run whose work fit the budget must not
            // fail because detecting the fixpoint takes one more iteration.
            let active: Vec<bool> = (0..n)
                .into_par_iter()
                .map(|v| {
                    !halted[v]
                        && (!inbox[v].is_empty()
                            || !program.quiescent(
                                &NodeCtx::new(v, n, round, g.neighbors(v), seed),
                                &states[v],
                            ))
                })
                .collect();
            let frontier = active.iter().filter(|&&a| a).count();
            if frontier == 0 {
                break;
            }
            if round > max_rounds {
                return Err(RuntimeError::RoundLimit { limit: max_rounds });
            }
            if O::ENABLED {
                observer.event(&Event::RoundOpen {
                    engine: ENGINE,
                    round,
                    active: frontier,
                });
            }
            let outs: Vec<Option<VertexRound<P::Msg>>> = states
                .par_iter_mut()
                .enumerate()
                .map(|(v, state)| {
                    active[v].then(|| {
                        let ctx = NodeCtx::new(v, n, round, g.neighbors(v), seed);
                        driver::step_vertex(program, &ctx, state, &inbox[v], SendBuf::new())
                    })
                })
                .collect();
            // Non-edge sends first (in vertex order), then bandwidth via the
            // meter — the precedence both engines resolve violations in.
            if let Some(err) = outs.iter().flatten().find_map(|o| o.violation.clone()) {
                return Err(RuntimeError::Model(err));
            }
            // Commit sequentially in vertex order: deterministic in the
            // thread count by construction. `inbox` stays readable through
            // the loop (the observer reports its sizes).
            let mut next_inbox: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
            let mut round_msgs: Vec<Message> = Vec::new();
            for (v, out) in outs.into_iter().enumerate() {
                let Some(out) = out else {
                    continue;
                };
                halted[v] = out.halted;
                if O::ENABLED {
                    observer.event(&Event::VertexStep {
                        engine: ENGINE,
                        round,
                        vertex: v,
                        inbox: inbox[v].len(),
                        sent: out.sends.msgs.len(),
                    });
                    observer.vertex_state(ENGINE, round, v, &states[v]);
                }
                for (dst, msg, words) in out.sends.msgs {
                    round_msgs.push(Message { src: v, dst, words });
                    next_inbox[dst].push(Envelope { src: v, msg });
                }
            }
            meter.round(g, &round_msgs).map_err(RuntimeError::Model)?;
            if O::ENABLED {
                observer.event(&Event::RoundClose {
                    engine: ENGINE,
                    round,
                    messages: meter.messages(),
                });
                observer.round_sealed(ENGINE, round);
            }
            inbox = next_inbox;
        }
        Ok(Execution {
            rounds: meter.rounds(),
            messages: meter.messages(),
            states,
            meter,
        })
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

    /// A program that overloads three edges with two one-word messages each.
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

    #[test]
    fn bandwidth_overcommitment_is_rejected() {
        let g = generators::path(3);
        let exec = Executor::new(ExecutorConfig::default());
        let err = exec.run(&g, &DoubleSender).unwrap_err();
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
