//! `mfd-replay` — checkpoint journal, bit-identical resume, and time-travel
//! replay over the digest chain.
//!
//! The workspace's determinism story so far is *comparative*: `mfd-trace`
//! journals one digest per sealed round and two runs can be diffed chain
//! against chain. This crate makes determinism *operational* — a run's
//! complete state can be captured at a round boundary, written to an
//! append-only journal, and resumed later into a continuation that is
//! **bit-identical** to the uninterrupted run, digest heads equal
//! round-for-round. Three pieces:
//!
//! * [`Snapshot`] ([`codec`]): a hand-rolled byte-stable encoding (the
//!   workspace is offline — no serde) implemented for both engines'
//!   checkpoint types, program states, and the reliable-delivery adapter's
//!   flattened transport state. Equal states encode to equal bytes; decodes
//!   are strict.
//! * [`Journal`] ([`journal`]): the durable artifact — header, one chain
//!   head per sealed round, periodic full-state checkpoints each stamped
//!   with the digest head at its round, and an end record. Loading verifies
//!   everything: stamps against the chain, exported digest states against
//!   the chain prefix, and each checkpoint's per-vertex digests *re-folded*
//!   into its chain link.
//! * **Resume and time travel** (engine-side): `ShardedExecutor::restore`
//!   turns a decoded checkpoint back into a step-able `Session` and
//!   `Simulator::restore` into a `SimSession` (each refusing one that does
//!   not fit the graph with a typed error), so `replay`-style tools restore
//!   the nearest checkpoint below a target round and step forward instead
//!   of re-running from scratch.
//!
//! # What a checkpoint must capture (and what it must not)
//!
//! The synchronous executor's loop state is small: per-vertex states and
//! halt flags, the readable mailboxes, the meter, and the round counter, in
//! vertex order (so independent of the shard/thread layout). Per-vertex
//! randomness needs **no** capture — `NodeCtx::rng()`
//! streams are stateless, re-seeded from `(seed, vertex, round)` every
//! round. The event engine adds the synchronizer: the packet heap (with
//! tie-break-transformed sequence keys, so the restored heap replays the
//! exact event order), per-vertex pending/late buffers, the round
//! population, and congestion counters. Fault models also need no capture:
//! fates are pure in `(seed, src, dst, round, index)`, so a resumed faulted
//! run meets exactly the fate sequence the uninterrupted run saw — the
//! fault-model memo is derived state and is simply re-derived.
//!
//! Everything map-shaped travels as sorted vectors, making the encoding a
//! pure function of the state. That is what the CI determinism gate
//! byte-diffs.
//!
//! # Worked example: kill, resume, verify
//!
//! ```
//! use mfd_graph::{generators, Graph};
//! use mfd_replay::{Journal, JournalHeader};
//! use mfd_runtime::{Envelope, ExecCheckpoint, NodeCtx, NodeProgram, Outbox,
//!                   ShardedConfig, ShardedExecutor};
//! use mfd_trace::{DigestSink, EngineKind};
//!
//! /// Every vertex folds its inbox and gossips for five rounds.
//! struct Gossip;
//! impl NodeProgram for Gossip {
//!     type State = u64;
//!     type Msg = u64;
//!     fn init(&self, ctx: &NodeCtx) -> u64 { ctx.id as u64 }
//!     fn round(&self, ctx: &NodeCtx, state: &mut u64,
//!              inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
//!         for env in inbox { *state = state.wrapping_mul(31) ^ env.msg; }
//!         if ctx.round < 5 { out.broadcast(*state); }
//!     }
//!     fn halted(&self, ctx: &NodeCtx, _state: &u64) -> bool { ctx.round >= 5 }
//! }
//!
//! let g = generators::wheel(8);
//! let exec = ShardedExecutor::new(ShardedConfig::default());
//!
//! // Step the run to completion, journaling a checkpoint every 2 rounds.
//! let mut sink = DigestSink::new();
//! let mut journal = Journal::new(JournalHeader {
//!     engine: EngineKind::Executor, n: 8, seed: 0, every: 2,
//!     label: "wheel-8/gossip".into(),
//! });
//! let mut session = exec.start(&g, &Gossip, &mut sink);
//! while let Some(round) = session.step().unwrap() {
//!     if round % 2 == 0 {
//!         journal.record(round, session.observer(), &session.checkpoint());
//!     }
//! }
//! let full = session.finish();
//! journal.seal(&sink).unwrap();
//!
//! // The journal round-trips byte-identically and verifies end-to-end.
//! let bytes = journal.to_bytes();
//! let loaded = Journal::from_bytes(&bytes).unwrap();
//! assert_eq!(loaded.to_bytes(), bytes);
//!
//! // "Crash" after round 2: resume from the journaled checkpoint. The
//! // continuation's digest chain extends the journal's chain seamlessly
//! // and the final states are bit-identical to the uninterrupted run.
//! let cp = loaded.checkpoint_at(2).unwrap();
//! let restored: ExecCheckpoint<u64, u64> = loaded.decode_checkpoint(cp).unwrap();
//! let mut resumed_sink = Journal::restore_sink(cp);
//! let mut session = exec.restore(&g, &Gossip, restored, &mut resumed_sink).unwrap();
//! while session.step().unwrap().is_some() {}
//! assert_eq!(session.finish().states, full.states);
//! assert_eq!(resumed_sink.chain(), sink.chain());
//! ```
//!
//! The repo-level suites (`tests/integration_replay.rs`) prove the stronger
//! property with proptest: kill at a *random* round, resume, and the
//! continuation is bit-for-bit the uninterrupted run — on both engines,
//! including under fault injection with the reliable-delivery adapter. The
//! `replay` binary in `mfd-bench` exposes the same machinery as a
//! time-travel debugger (run-to-round, dump, diff, verify), and
//! `report --section replay` gates it in CI.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-replay").

pub mod codec;
pub mod journal;

pub use codec::{from_bytes, to_bytes, CodecError, Reader, Snapshot};
pub use journal::{Journal, JournalCheckpoint, JournalError, JournalHeader, MAGIC};
