//! `mfd-runtime` — a deterministic, data-parallel, round-synchronous CONGEST
//! execution engine.
//!
//! Where `mfd-congest` *meters* algorithms (leader-local computations charge
//! rounds to a [`mfd_congest::RoundMeter`] without any vertex actually sending
//! anything), this crate *executes* them: algorithms are written as
//! [`NodeProgram`]s — per-vertex state machines exchanging typed O(log n)-word
//! messages — and a [`ShardedExecutor`] drives all vertices round by round
//! across the simulating machine's cores.
//!
//! There is **one production engine**: [`ShardedExecutor`], over the CSR
//! rows of [`mfd_graph::Graph`]. It runs to completion (`run`,
//! `run_traced`, `run_profiled`) or as a step-able [`Session`]
//! (`start` / `restore` → `step`, `checkpoint`, `finish`) that `mfd-replay`
//! journals and resumes. [`Executor`] is the *reference stepper*: the same
//! semantics written plainly over the same graph, kept only so tests
//! have an independent implementation to compare the engine against.
//!
//! Guarantees:
//!
//! * **Model compliance is executed, not asserted.** Every round's complete
//!   message set passes through a [`mfd_congest::RoundMeter`]: a send along a
//!   non-edge or past the per-edge bandwidth cap aborts the run with
//!   [`RuntimeError::Model`]. Round and message statistics come from the same
//!   meter the rest of the codebase uses, so executed and metered algorithms
//!   are directly comparable.
//! * **Determinism.** Results are bit-for-bit independent of the shard and
//!   thread counts: vertex results commit in vertex order, mailboxes
//!   preserve sender order, and per-vertex randomness ([`NodeCtx::rng`]) is
//!   seeded from `(seed, vertex, round)`, never from scheduling.
//! * **Parallel composition.** [`run_each`] runs vertex-disjoint clusters
//!   concurrently — every cluster an induced graph on the one [`ShardedExecutor`]
//!   built for the call, each free to run its own program type — and
//!   returns the per-cluster meters for `merge_parallel` to fold (max of
//!   rounds, sum of messages), the paper's convention for parallel
//!   subroutines.
//! * **Frontier-aware scheduling.** Programs can declare quiescence
//!   ([`NodeProgram::quiescent`]); the executor then skips sleeping vertices
//!   and ends the run at a global fixpoint, so wave-style programs pay per
//!   round for their frontier, not for the whole graph.
//! * **Checkpoints.** A [`Session`] can be captured at any round boundary
//!   as an [`ExecCheckpoint`] — plain data in vertex order, independent of
//!   the layout — which [`ShardedExecutor::restore`] continues bit-identically
//!   or refuses with a typed [`RuntimeError::CheckpointMismatch`].
//!
//! The per-vertex driving logic (inbox contract, validated sends, halting) is
//! factored into [`driver`] and shared with the asynchronous discrete-event
//! simulator in `mfd-sim`, which runs the same unmodified [`NodeProgram`]s
//! under per-edge message latencies behind an α-synchronizer.
//!
//! Algorithm ports (Cole–Vishkin forest colouring, BFS-tree construction,
//! multi-source low-diameter clustering) live in `mfd_core::programs`, next to
//! the centralized implementations they are differentially validated against.
//!
//! # Example
//!
//! ```
//! use mfd_graph::generators;
//! use mfd_runtime::{
//!     Envelope, Executor, ExecutorConfig, NodeCtx, NodeProgram, Outbox, ShardedConfig,
//!     ShardedExecutor,
//! };
//!
//! /// Each vertex learns the maximum id in its 2-hop neighbourhood.
//! struct TwoHopMax;
//!
//! impl NodeProgram for TwoHopMax {
//!     type State = u64;
//!     type Msg = u64;
//!
//!     fn init(&self, ctx: &NodeCtx) -> u64 {
//!         ctx.id as u64
//!     }
//!
//!     fn round(
//!         &self,
//!         _ctx: &NodeCtx,
//!         state: &mut u64,
//!         inbox: &[Envelope<u64>],
//!         out: &mut Outbox<'_, u64>,
//!     ) {
//!         for env in inbox {
//!             *state = (*state).max(env.msg);
//!         }
//!         out.broadcast(*state);
//!     }
//!
//!     fn halted(&self, ctx: &NodeCtx, _state: &u64) -> bool {
//!         ctx.round >= 3
//!     }
//! }
//!
//! let g = generators::path(5);
//! let exec = ShardedExecutor::new(ShardedConfig::default());
//! let run = exec.run(&g, &TwoHopMax).unwrap();
//! assert_eq!(run.rounds, 3);
//! assert_eq!(run.states[2], 4); // vertex 2 heard about vertex 4
//!
//! // The reference stepper agrees bit for bit.
//! let reference = Executor::new(ExecutorConfig::default()).run(&g, &TwoHopMax).unwrap();
//! assert_eq!(reference.states, run.states);
//! ```

//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-runtime"); the reproducibility
//! contract every engine upholds is spelled out in `docs/DETERMINISM.md`.

pub mod cluster;
pub mod driver;
pub mod executor;
pub mod profile;
pub mod program;
pub mod sharded;

pub use cluster::run_each;
pub use driver::VertexRound;
pub use executor::{Execution, Executor, ExecutorConfig, RuntimeError};
pub use profile::{NoProfiler, Profiler, RoundSample, PHASES, PHASE_NAMES};
pub use program::{Envelope, NodeCtx, NodeProgram, NodeRng, Outbox, RuntimeMessage, SendBuf};
pub use sharded::{
    ArenaStats, ExecCheckpoint, Session, ShardedConfig, ShardedExecution, ShardedExecutor,
};
