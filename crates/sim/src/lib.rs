//! `mfd-sim` — a deterministic discrete-event simulator for **asynchronous**
//! CONGEST execution.
//!
//! The workspace now has three ways to run a distributed algorithm, one per
//! layer of realism:
//!
//! 1. **Metered** (`mfd-congest`): a leader-local computation charges rounds
//!    to a [`mfd_congest::RoundMeter`].
//! 2. **Executed** (`mfd-runtime`): a [`mfd_runtime::NodeProgram`] really
//!    exchanges messages, but every vertex moves in lockstep.
//! 3. **Simulated** (this crate): the *same unmodified* `NodeProgram` runs on
//!    an asynchronous network where each edge delays messages according to a
//!    pluggable [`LatencyModel`], behind an α-synchronizer that preserves the
//!    program's synchronous round semantics ([`simulator`] module docs).
//!
//! Everything is deterministic: latencies are pure functions of
//! `(seed, edge, round)`, events at equal times commute, and with
//! [`LatencyModel::Fixed`]`(1)` a simulation reproduces the synchronous
//! [`mfd_runtime::Executor`]'s final states bit for bit — the cross-engine
//! differential suites in `mfd-core` and the repo-level tests enforce this.
//! What latency models add is the *time axis*: [`SimExecution`] reports the
//! makespan, per-vertex completion times, per-edge congestion peaks and the
//! synchronizer's overhead next to the usual round/message accounting.
//!
//! # Worked example: one BFS wave, three networks
//!
//! A BFS-style flood takes `height + 1` protocol rounds no matter what the
//! network does — that is the algorithm's round complexity, and all three
//! runs below report the same `rounds` and `messages`. The *makespan* tells a
//! different story on each network:
//!
//! ```
//! use mfd_graph::generators;
//! use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox};
//! use mfd_sim::{LatencyModel, SimConfig, Simulator};
//!
//! /// Vertex 0 floods a token; everyone adopts its hop distance.
//! struct Flood;
//! impl NodeProgram for Flood {
//!     type State = Option<u64>;
//!     type Msg = u64;
//!     fn init(&self, ctx: &NodeCtx) -> Option<u64> {
//!         (ctx.id == 0).then_some(0)
//!     }
//!     fn round(
//!         &self,
//!         ctx: &NodeCtx,
//!         state: &mut Option<u64>,
//!         inbox: &[Envelope<u64>],
//!         out: &mut Outbox<'_, u64>,
//!     ) {
//!         if state.is_none() {
//!             if let Some(first) = inbox.first() {
//!                 *state = Some(first.msg + 1);
//!             }
//!         }
//!         if let Some(d) = *state {
//!             if ctx.round == d + 1 {
//!                 out.broadcast(d); // forward the wave exactly once
//!             }
//!         }
//!     }
//!     fn halted(&self, ctx: &NodeCtx, state: &Option<u64>) -> bool {
//!         state.is_some() && ctx.round > state.unwrap() || ctx.round > ctx.n as u64
//!     }
//! }
//!
//! let g = generators::path(6); // height 5: six rounds of protocol
//!
//! // Network 1: unit delays — the synchronous schedule, 1 tick per round.
//! let unit = Simulator::new(SimConfig::default()).run(&g, &Flood).unwrap();
//! assert_eq!(unit.rounds, 6);
//! assert_eq!(unit.makespan, 5); // round r fires at tick r - 1
//!
//! // Network 2: every link waits 3 ticks — same rounds, 3× the wall clock.
//! let slow = Simulator::new(SimConfig::default().with_latency(LatencyModel::Fixed(3)))
//!     .run(&g, &Flood)
//!     .unwrap();
//! assert_eq!(slow.rounds, 6);
//! assert_eq!(slow.makespan, 15);
//! assert_eq!(slow.states, unit.states); // latency never changes the answer
//!
//! // Network 3: jittery links — rounds still identical, makespan in between,
//! // and bit-for-bit reproducible for the same seed.
//! let jitter = SimConfig::default().with_latency(LatencyModel::Uniform { lo: 1, hi: 3 });
//! let a = Simulator::new(jitter.clone()).run(&g, &Flood).unwrap();
//! let b = Simulator::new(jitter).run(&g, &Flood).unwrap();
//! assert_eq!(a.rounds, 6);
//! assert_eq!(a.states, unit.states);
//! assert_eq!(a.makespan, b.makespan);
//! assert!((5..=15).contains(&a.makespan));
//!
//! // The α-synchronizer's price is visible, not hidden: pure pulses are the
//! // packets that carried no program message.
//! assert!(a.stats.pure_pulses > 0);
//! println!("overhead: {:.0}%", a.stats.overhead_ratio() * 100.0);
//! ```
//!
//! For heterogeneous topologies, [`LatencyModel::PerEdge`] reads delays from
//! an [`mfd_graph::WeightedGraph`] — e.g. reuse a decomposition's quotient
//! graph as a link-latency map — and [`LatencyModel::HeavyTail`] models
//! straggler links with a truncated Pareto distribution.

//! # Fault injection
//!
//! The engine's delivery path is also the workspace's fault-injection
//! surface: [`Simulator::run_with_faults`] consults a [`FaultHook`] once per
//! program message (drop / duplicate / slip to a later round) and supports
//! crash-stop vertices with a failure-detector delay — see the [`faults`]
//! module docs for the exact semantics and determinism contract. Fault
//! *models* (i.i.d. and Gilbert–Elliott loss, chaos mixes, crash schedules)
//! and the reliable-delivery adapter that repairs a lossy network live one
//! layer up, in `mfd-faults`.
//!
//! # Sessions: stepping, checkpoints, resume
//!
//! [`Simulator::run`], [`Simulator::run_traced`] and
//! [`Simulator::run_with_faults`] are one-shots over a step-able
//! [`SimSession`], the counterpart of `mfd_runtime::Session`. A session opens
//! from a [`SimEngine`] — the simulator paired with the fault hook its
//! sessions run under ([`NoFaults`] for a clean network) — through
//! [`mfd_runtime::SessionEngine::open`], fresh or from a [`SimCheckpoint`],
//! the trait the executor implements too, so code written once against it
//! journals, resumes and time-travels on either engine. Then
//! [`SimSession::step`] advances to the next consistent cut that sealed a
//! round, [`SimSession::checkpoint`] captures the engine's complete state
//! there, and [`SimSession::finish`] returns the report — `Wedged` rather
//! than an error if the round budget ran out (the trait's `finish` reports
//! that as [`mfd_runtime::RuntimeError::RoundLimit`], as the executor does).
//! A restored session continues bit-identically; a checkpoint that does not
//! fit the graph is refused with
//! [`mfd_runtime::RuntimeError::CheckpointMismatch`], never a panic.
//!
//! The checkpoint types are the engine's own state — capturing is cloning,
//! restoring is checking and adopting — and the crate holds no hash map (the
//! workspace `clippy.toml` disallows one), so no state depends on hash order.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-sim").

pub mod faults;
pub mod latency;
pub mod report;
pub mod simulator;

pub use faults::{FaultHook, FaultOutcome, FaultedRun, MessageFate, NoFaults};
pub use latency::LatencyModel;
pub use report::{SimExecution, SimStats};
pub use simulator::{
    run_both, PacketCheckpoint, SimCheckpoint, SimConfig, SimEngine, SimSession, Simulator,
    TieBreak, VertexCheckpoint,
};
