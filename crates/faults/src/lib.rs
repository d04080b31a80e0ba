//! `mfd-faults` — fault injection and recovery for the CONGEST engines.
//!
//! The workspace's execution story so far assumes a perfect network: the
//! synchronous executor by construction, the `mfd-sim` event engine by
//! delivering every packet. This crate opens the scenario axis real systems
//! live on — **what if the network lies?** — in three layers:
//!
//! 1. **Fault models** ([`models`]): deterministic, seed-keyed
//!    implementations of [`mfd_sim::FaultHook`] covering i.i.d. and
//!    Gilbert–Elliott burst message loss, duplication, reordering beyond
//!    latency jitter (round slippage), and crash-stop vertices with a crash
//!    schedule and a failure-detector delay. Faults are sampled through the
//!    same splitmix64 `(seed, edge, round)` discipline as everything else,
//!    so faulty runs are bit-for-bit reproducible — and at rate zero are
//!    *identical* to clean ones (enforced by the zero-fault identity
//!    suites).
//!
//! 2. **Recovery** ([`reliable`]): [`Reliable<P>`] wraps any unmodified
//!    [`mfd_runtime::NodeProgram`] with per-edge sequence numbers,
//!    cumulative acks and timeout retransmission, piggybacked on the
//!    α-synchronizer pulses — a lossy network becomes reliable again, the
//!    wrapped program's trajectory is exactly its loss-free one, and the
//!    retransmit/ack overhead is reported next to the usual round/message
//!    accounting. Its per-vertex [`ReliableState`] is plain data and its own
//!    checkpoint (`mfd-replay` encodes it field by field), and its
//!    [`mfd_runtime::NodeProgram::fits`] refuses a restored state whose
//!    send/receive windows do not fit the vertex — one per neighbor, each
//!    with `acked <= tx_next <= sent.len()`, `delivered <= prefix` and no
//!    pending key below `delivered` — or that counts more payload frames
//!    than frames, so a forged faulted checkpoint is a typed error, not a
//!    panic.
//!
//! 3. **Experiments** ([`experiments`], [`election`]): the §2 gather
//!    strategies measured raw vs. recovered under each fault model
//!    (delivered-fraction degradation, wedge verdicts, recovery overhead),
//!    and crash-stop runs where the surviving cluster re-elects a gather
//!    leader by heartbeat epochs and re-gathers without the crashed one.
//!
//! **Fault models vs. the adapter.** A fault model *attacks* delivery below
//! the program (drop/duplicate/slip are invisible to the sender; crashes
//! silence a vertex); the adapter *defends* above it (every message is
//! numbered, acknowledged and retransmitted until delivered). They compose:
//! the acceptance experiments run `Reliable<P>` under the very models that
//! break raw `P`, and verify the delivered set comes back exactly.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-faults"); the stateless fault
//! fates are part of the contract in `docs/DETERMINISM.md`.

pub mod election;
pub mod experiments;
pub mod models;
pub mod reliable;

pub use election::{ElectionState, ReElectionProgram};
pub use experiments::{
    crash_and_regather, gather_raw, gather_recovered, CrashRegather, FaultImpact,
};
pub use models::{FaultModel, LossModel};
pub use reliable::{EdgeRx, EdgeTx, Frame, Reliable, ReliableState, ReliableStats};
