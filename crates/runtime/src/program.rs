//! The node-program abstraction: per-vertex state, typed messages, and the
//! per-round send interface.

use mfd_congest::CongestError;
use mfd_graph::properties::splitmix64;

/// A message payload exchanged by a node program.
///
/// The CONGEST model allows O(log n) bits per edge per round; the meter counts
/// in 64-bit words. [`RuntimeMessage::words`] declares how many words a payload
/// occupies so the executor can charge (and police) bandwidth at send time.
pub trait RuntimeMessage: Clone + Send + Sync + 'static {
    /// Size of this message in 64-bit words (defaults to one word — a single
    /// O(log n)-bit CONGEST message).
    fn words(&self) -> usize {
        1
    }
}

impl RuntimeMessage for u64 {}
impl RuntimeMessage for u32 {}
impl RuntimeMessage for usize {}
impl RuntimeMessage for () {
    fn words(&self) -> usize {
        0
    }
}
impl RuntimeMessage for (u64, u64) {
    fn words(&self) -> usize {
        2
    }
}

/// Read-only per-vertex context handed to every [`NodeProgram`] callback.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// This vertex's index in `0..n`.
    pub id: usize,
    /// Number of vertices in the (sub)graph being executed.
    pub n: usize,
    /// Current round, starting at 1 (`0` during `init`).
    pub round: u64,
    /// Sorted neighbor list of this vertex.
    pub neighbors: &'a [usize],
    pub(crate) seed: u64,
}

impl<'a> NodeCtx<'a> {
    /// Builds a context for one vertex at one round.
    ///
    /// Intended for execution-engine implementors (the synchronous
    /// [`crate::ShardedExecutor`], the asynchronous `mfd-sim` simulator); programs
    /// receive ready-made contexts. Engines sharing a `seed` hand programs
    /// identical randomness, which is what makes cross-engine differential
    /// validation bit-for-bit.
    pub fn new(id: usize, n: usize, round: u64, neighbors: &'a [usize], seed: u64) -> Self {
        NodeCtx {
            id,
            n,
            round,
            neighbors,
            seed,
        }
    }

    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The same vertex context at a different round, sharing the engine seed.
    ///
    /// This is the adapter hook: a wrapper program (e.g. the
    /// reliable-delivery adapter in `mfd-faults`) that multiplexes an inner
    /// [`NodeProgram`]'s logical rounds onto its own physical rounds derives
    /// the inner contexts this way, so the inner program sees exactly the
    /// `(seed, vertex, round)` randomness streams it would see running
    /// directly on an engine.
    pub fn at_round(&self, round: u64) -> NodeCtx<'a> {
        NodeCtx { round, ..*self }
    }

    /// Deterministic per-vertex, per-round random generator.
    ///
    /// Seeded from `(executor seed, vertex id, round)`, so executions are
    /// reproducible bit-for-bit regardless of thread count or scheduling.
    pub fn rng(&self) -> NodeRng {
        let mut state = splitmix64(self.seed);
        state = splitmix64(state ^ self.id as u64);
        state = splitmix64(state ^ self.round);
        NodeRng { state }
    }
}

/// Deterministic per-vertex random generator (SplitMix64, via the shared
/// [`mfd_graph::properties::splitmix64`] mix).
#[derive(Debug, Clone)]
pub struct NodeRng {
    state: u64,
}

impl NodeRng {
    /// Creates a generator from a raw seed.
    ///
    /// Engines derive stream seeds from a [`splitmix64`] chain over whatever
    /// identifies the stream (vertex and round for [`NodeCtx::rng`]; edge and
    /// round for latency sampling in `mfd-sim`).
    pub fn from_seed(seed: u64) -> Self {
        NodeRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform value in `0..bound`, without modulo bias.
    ///
    /// Draws are rejected until one lands below the largest multiple of
    /// `bound` representable in a `u64`, so every residue is exactly equally
    /// likely. At most one draw is rejected in expectation (the acceptance
    /// zone always covers more than half of the 64-bit range).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 2^64 mod bound: the count of values past the largest multiple of
        // `bound`; drawing from them would over-represent the low residues.
        let excess = (u64::MAX % bound).wrapping_add(1) % bound;
        loop {
            let x = self.next_u64();
            if x <= u64::MAX - excess {
                return x % bound;
            }
        }
    }
}

/// A received message together with its sender.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending vertex.
    pub src: usize,
    /// Payload.
    pub msg: M,
}

/// The storage one vertex step queues its sends into, handed to
/// `driver::step_vertex` and back by value: an engine that steps vertices one
/// after another passes the previous step's drained buffer and never
/// allocates; any other caller passes [`SendBuf::new`].
#[derive(Debug)]
pub struct SendBuf<M> {
    /// Queued messages, in send order: `(destination, payload, words)`.
    pub msgs: Vec<(usize, M, usize)>,
    /// Position of each message's destination in the sender's neighbor slice,
    /// aligned with `msgs` — the index [`Outbox::send`] / [`Outbox::broadcast`]
    /// resolved anyway, kept so per-edge accounting downstream need not search
    /// for it again.
    pub slots: Vec<usize>,
}

impl<M> SendBuf<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        SendBuf {
            msgs: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<M> Default for SendBuf<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-round send buffer for one vertex.
///
/// Sends are validated **at send time**: a message to a non-neighbor is
/// recorded as a [`CongestError::NotAnEdge`] model violation and the round
/// fails (bandwidth overcommitment is caught when the round is submitted to
/// the meter).
#[derive(Debug)]
pub struct Outbox<'a, M> {
    src: usize,
    neighbors: &'a [usize],
    pub(crate) buf: SendBuf<M>,
    pub(crate) violation: Option<CongestError>,
}

impl<'a, M: RuntimeMessage> Outbox<'a, M> {
    /// Builds an empty outbox for one vertex (`neighbors` must be sorted).
    ///
    /// Engines get this wired up by `driver::step_vertex`; it is public so
    /// adapter programs can drive an embedded [`NodeProgram`]'s round with
    /// the same validated send path and then forward the collected sends
    /// through their own envelopes ([`Outbox::into_sends`]).
    pub fn new(src: usize, neighbors: &'a [usize]) -> Self {
        Self::with_buf(src, neighbors, SendBuf::new())
    }

    /// [`Outbox::new`] over recycled storage (emptied here), so an engine
    /// that pools its buffers steps a vertex without allocating.
    pub(crate) fn with_buf(src: usize, neighbors: &'a [usize], mut buf: SendBuf<M>) -> Self {
        buf.msgs.clear();
        buf.slots.clear();
        Outbox {
            src,
            neighbors,
            buf,
            violation: None,
        }
    }

    /// Queues `msg` for delivery to `dst` at the start of the next round.
    pub fn send(&mut self, dst: usize, msg: M) {
        let Ok(slot) = self.neighbors.binary_search(&dst) else {
            if self.violation.is_none() {
                self.violation = Some(CongestError::NotAnEdge { src: self.src, dst });
            }
            return;
        };
        let words = msg.words();
        self.buf.msgs.push((dst, msg, words));
        self.buf.slots.push(slot);
    }

    /// Sends `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M) {
        for &u in self.neighbors {
            let words = msg.words();
            self.buf.msgs.push((u, msg.clone(), words));
        }
        self.buf.slots.extend(0..self.neighbors.len());
    }

    /// The first model violation recorded at send time, if any.
    pub fn violation(&self) -> Option<&CongestError> {
        self.violation.as_ref()
    }

    /// Consumes the outbox into its queued sends, in send order:
    /// `(destination, message, size in words)` — the adapter-visible message
    /// envelopes an embedding program re-packages into its own payloads.
    pub fn into_sends(self) -> Vec<(usize, M, usize)> {
        self.buf.msgs
    }
}

/// A round-synchronous distributed program, executed once per vertex.
///
/// The executor drives the standard CONGEST schedule: at round `r` every
/// non-halted vertex receives the messages sent to it in round `r - 1`,
/// updates its state, and queues messages for round `r + 1`. All vertices move
/// in lockstep; there is no way to observe another vertex's state except
/// through messages.
pub trait NodeProgram: Sync {
    /// Per-vertex state.
    type State: Send + Sync;
    /// Message payload type.
    type Msg: RuntimeMessage;

    /// Builds the initial state of a vertex (round 0, nothing received yet).
    fn init(&self, ctx: &NodeCtx) -> Self::State;

    /// Executes one synchronous round on one vertex: consume the `inbox`
    /// (messages addressed to this vertex last round, in increasing sender
    /// order), mutate `state`, and queue sends on `out`.
    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut Self::State,
        inbox: &[Envelope<Self::Msg>],
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// Returns `true` once the vertex has terminated. Halted vertices are no
    /// longer scheduled and messages addressed to them are dropped; execution
    /// stops when every vertex has halted.
    fn halted(&self, ctx: &NodeCtx, state: &Self::State) -> bool;

    /// Declares an upper bound on the local rounds this program can
    /// legitimately need on the graph it was built for.
    ///
    /// Engines cap their round budget at
    /// `min(config.max_rounds, hint)`, so a multi-phase program that wedges
    /// in one of its phases (a lost control message, a quota that never
    /// fills) fails fast with [`crate::RuntimeError::RoundLimit`] instead of
    /// spinning to the engine-wide default of a million rounds. Programs
    /// that halt on an internal round budget must return a hint strictly
    /// *above* that budget (the budget round itself still has to execute).
    ///
    /// The default (`None`) leaves the engine configuration in charge.
    fn round_budget_hint(&self) -> Option<u64> {
        None
    }

    /// Declares that running this vertex with an **empty inbox** would be a
    /// no-op: no state change, no sends, no halting transition.
    ///
    /// Both synchronous engines use this for frontier-aware scheduling:
    /// quiescent vertices with nothing to read are skipped, so a wave-style
    /// program (BFS, Voronoi flooding) pays per round only for its frontier.
    /// When *every* live vertex is skipped the system has reached a
    /// fixpoint — nothing is in flight and no state can ever change — and the
    /// engine ends the run there.
    ///
    /// **The answer must be round-stable:** for a vertex that has not been
    /// stepped since the last evaluation (its state is unchanged) and whose
    /// inbox is empty, the result may not depend on `ctx.round`. The
    /// reference stepper ([`crate::Executor`]) re-asks every live vertex every
    /// round; the [`crate::ShardedExecutor`] asks **once, right after each step** (with
    /// the context of the following round, and once per vertex at start-up)
    /// and keeps the answer until mail or the next step reaches the vertex.
    /// A round-dependent answer would make the two schedule differently;
    /// debug builds of the sharded engine assert that they do not. Derive the
    /// answer from `state` and the round-independent part of `ctx` (id,
    /// degree, neighbors), as every program in this workspace does.
    ///
    /// The default (`false`) schedules every non-halted vertex every round,
    /// which is always correct. Programs overriding this must either
    /// guarantee the no-op property for every round at which they return
    /// `true`, or knowingly accept that a round-triggered transition on an
    /// empty inbox (a timeout such as "halt once `round > n`") may never
    /// fire because the engine ends the run at the fixpoint first. The
    /// latter is a deliberate semantic trade and only acceptable when the
    /// skipped transition cannot change public outputs — the BFS/Voronoi
    /// unreachability timeouts are the canonical example — and it makes
    /// round counts diverge from engines without frontier scheduling (the
    /// `mfd-sim` synchronizer) on inputs where the fixpoint is reached.
    fn quiescent(&self, ctx: &NodeCtx, state: &Self::State) -> bool {
        let _ = (ctx, state);
        false
    }

    /// Whether `state`, restored from a checkpoint, fits the vertex `ctx`
    /// describes: every index and subtraction [`NodeProgram::round`] will
    /// make on it stays in range.
    ///
    /// A checkpoint decoded from bytes is outside input, so both engines'
    /// [`crate::SessionEngine::open`] ask this of every vertex before they
    /// adopt a checkpoint, and answer `false` with
    /// [`crate::RuntimeError::CheckpointMismatch`] (`what: "program state"`)
    /// instead of panicking at the first step. A program whose state is
    /// shaped by its vertex — per-neighbor arrays, cursors into its own
    /// buffers — overrides this. `ctx.round` bounds the rounds any vertex has
    /// run: the checkpoint's round on the synchronous engine, the furthest
    /// round a vertex has reached on the event engine, whose vertices run
    /// ahead of the sealed rounds. The default (`true`) suits states any
    /// value of which a round can take.
    fn fits(&self, ctx: &NodeCtx, state: &Self::State) -> bool {
        let _ = (ctx, state);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_stays_in_range_and_is_deterministic() {
        let mut a = NodeRng::from_seed(7);
        let mut b = NodeRng::from_seed(7);
        for bound in [1, 2, 3, 1000, u64::MAX / 2 + 1, u64::MAX] {
            for _ in 0..64 {
                let x = a.below(bound);
                assert!(x < bound);
                assert_eq!(x, b.below(bound));
            }
        }
    }

    #[test]
    fn below_is_unbiased_across_buckets() {
        // A plain `next_u64() % bound` with bound = 2^63 + 1 maps the whole
        // upper half of the 64-bit range onto the low residues, giving values
        // below 2^63 - 1 twice the probability mass. Rejection sampling must
        // keep every bucket of a small bound uniform instead.
        let mut rng = NodeRng::from_seed(0xD157);
        let bound = 5u64;
        let samples = 50_000;
        let mut counts = [0u64; 5];
        for _ in 0..samples {
            counts[rng.below(bound) as usize] += 1;
        }
        let expected = samples / bound;
        for (residue, &c) in counts.iter().enumerate() {
            let deviation = c.abs_diff(expected);
            assert!(
                deviation < expected / 10,
                "residue {residue} saw {c} of {samples} samples (expected ~{expected})"
            );
        }
    }

    #[test]
    fn below_rejects_overrepresented_draws() {
        // With bound 2^63 + 1 the acceptance zone is exactly 2^63 + 1 values;
        // roughly half of all draws are rejected, and every accepted value is
        // returned unchanged (x % bound == x for x <= 2^63).
        let bound = (1u64 << 63) + 1;
        let mut rng = NodeRng::from_seed(42);
        for _ in 0..256 {
            assert!(rng.below(bound) < bound);
        }
    }
}
