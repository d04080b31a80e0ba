//! `mfd-trace` — deterministic tracing, metrics and round digests for both
//! execution engines.
//!
//! Every engine in the workspace (the synchronous `mfd-runtime` executor, the
//! asynchronous `mfd-sim` event engine) and the layers above them (the
//! reliable-delivery adapter in `mfd-faults`, the gather backends in
//! `mfd-routing`, the decomposition pipeline in `mfd-core`) emit their
//! observable moments through the two traits defined here:
//!
//! * [`TraceSink`] — the object-safe consumer surface. Every method has a
//!   no-op default body, so a sink implements only what it cares about.
//!   Phase-structured layers (`build_edt_traced`, `gather_all_traced`) take
//!   `&mut dyn TraceSink` directly; the unit type `()` is the canonical
//!   no-op `dyn` sink.
//! * [`RunObserver`] — the monomorphized engine-facing surface, generic over
//!   the program's state type. Engines thread an `O: RunObserver<P::State>`
//!   through their hot loops; every hook is guarded by the associated
//!   constant [`RunObserver::ENABLED`], so with [`NullSink`]
//!   (`ENABLED = false`) the branches are constant-folded away and a traced
//!   run compiles to exactly the untraced one. The repo-level proptests
//!   (`tests/integration_trace.rs`) prove the stronger runtime property:
//!   traced and untraced runs are bit-identical.
//!
//! A blanket impl turns any [`TraceSink`] into a [`RunObserver`] for any
//! state type that is [`Digestible`] (which itself blankets over
//! `std::hash::Hash`), so `executor.run_traced(g, &program, &mut sink)` works
//! for plain sinks and composed ones alike.
//!
//! # Sink composition
//!
//! Sinks compose with [`Tee`]: `Tee::new(MetricsSink::new(),
//! DigestSink::new())` aggregates counters *and* journals round digests in
//! one pass. The provided sinks are:
//!
//! * [`MetricsSink`] — deterministic counters and histograms (events by
//!   kind, messages, a log₂ inbox-size histogram, retransmits, per-cluster
//!   rounds) plus *optional* wall-clock span timings that are deliberately
//!   kept out of the deterministic snapshot (see below).
//! * [`JsonlSink`] — structured JSON-lines event log, plus
//!   [`jsonl::chrome_trace`] which renders recorded spans in the Chrome
//!   trace-event format (load in `chrome://tracing` / Perfetto).
//! * [`DigestSink`] — journals one hash per sealed round covering the state
//!   of *every* vertex, chained into a running head; the substrate of the
//!   [`divergence`] search.
//! * [`RecordingSink`] — buffers raw [`Event`]s for tests.
//!
//! # The determinism contract
//!
//! Everything a sink receives through [`TraceSink::event`],
//! [`TraceSink::vertex_digest`] and [`TraceSink::round_sealed`] is a pure
//! function of `(graph, program, seed, engine)` — the same inputs replay the
//! same event stream, which is what makes byte-diffing two `JsonlSink` logs
//! or comparing two [`DigestSink`] chains meaningful. Two things are
//! deliberately **outside** the deterministic record:
//!
//! * Wall-clock span durations ([`MetricsSink::with_wall_clock`],
//!   [`jsonl::chrome_trace`] timestamps). They exist for flamegraphs, never
//!   for comparisons; [`MetricsSink::snapshot`] omits them.
//! * Anything scheduler-dependent. The synchronous executors sweep vertices
//!   in parallel but commit in vertex order, and the event engine is fully
//!   sequential, so hooks fire at commit points only — never from inside a
//!   parallel worker. (Engines may *compute* per-vertex digests inside the
//!   sweep via [`RunObserver::state_digest`] — a pure function of one
//!   vertex's state — but sink delivery stays sequential and in ascending
//!   vertex order, so the observed stream is scheduling-independent.)
//!
//! What is *in* a round digest: the [`Digestible::digest`] of every vertex's
//! state at the moment the round is sealed, folded in vertex order, chained
//! on the previous round's head. What is *not*: message contents, timing,
//! engine identity. That is exactly why an executor chain and a `Fixed(1)`
//! simulator chain agree round for round on the cross-engine contract (and
//! why [`divergence::first_divergence`] can binary-search the first round
//! where two runs part ways).
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-trace"); digest-chain semantics
//! are spelled out in `docs/DETERMINISM.md`.

pub mod digest;
pub mod divergence;
pub mod jsonl;
pub mod metrics;

pub use digest::{ChainMismatch, DigestSink, DigestState};
pub use divergence::first_divergence;
pub use jsonl::JsonlSink;
pub use metrics::{MetricsSink, MetricsSnapshot, SpanMetrics};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Which engine emitted an event or sealed a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineKind {
    /// The synchronous lockstep executor (`mfd-runtime`).
    Executor,
    /// The asynchronous discrete-event engine (`mfd-sim`).
    Sim,
}

impl EngineKind {
    /// Stable lowercase name, as used in reports and JSON logs.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Executor => "executor",
            EngineKind::Sim => "sim",
        }
    }
}

/// What a fault hook decided to do to one program message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FateKind {
    /// The message was dropped at delivery.
    Drop,
    /// The message was delivered and a duplicate copy scheduled late.
    Duplicate,
    /// The message slipped to a later round.
    Slip,
}

impl FateKind {
    /// Stable lowercase name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FateKind::Drop => "drop",
            FateKind::Duplicate => "duplicate",
            FateKind::Slip => "slip",
        }
    }
}

/// One observable moment of a run.
///
/// Variants are deliberately flat `Copy` data — hooks fire on engine hot
/// paths, so building one must never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A synchronous round began with `active` non-quiescent vertices.
    RoundOpen {
        /// Emitting engine.
        engine: EngineKind,
        /// 1-based protocol round.
        round: u64,
        /// Vertices actually swept this round.
        active: usize,
    },
    /// One vertex executed one protocol round (the event engine's dispatch).
    VertexStep {
        /// Emitting engine.
        engine: EngineKind,
        /// 1-based protocol round.
        round: u64,
        /// The vertex.
        vertex: usize,
        /// Messages in its inbox this round.
        inbox: usize,
        /// Messages it sent this round.
        sent: usize,
    },
    /// A synchronous round committed, having delivered `messages` so far.
    RoundClose {
        /// Emitting engine.
        engine: EngineKind,
        /// 1-based protocol round.
        round: u64,
        /// Cumulative program messages after this round.
        messages: u64,
    },
    /// The α-synchronizer scheduled one packet (payload or pure pulse).
    Pulse {
        /// Virtual send time.
        time: u64,
        /// Sending vertex.
        src: usize,
        /// Receiving vertex.
        dst: usize,
        /// Program messages aboard (0 = pure pulse).
        payload: usize,
        /// Whether the packet announces the sender's halt.
        halt: bool,
    },
    /// A fault hook acted on one program message.
    FaultFate {
        /// Sending vertex.
        src: usize,
        /// Receiving vertex.
        dst: usize,
        /// Protocol round of the delivery.
        round: u64,
        /// What happened to it.
        fate: FateKind,
    },
    /// A vertex crashed (crash-stop model).
    Crash {
        /// The crashed vertex.
        vertex: usize,
        /// Protocol round at which it died.
        round: u64,
        /// Virtual time of death.
        time: u64,
    },
    /// A reliable-delivery vertex retransmitted `count` frames to a peer.
    Retransmit {
        /// Retransmitting vertex.
        vertex: usize,
        /// The peer the frames went to.
        peer: usize,
        /// Adapter round of the retransmission.
        round: u64,
        /// Frames re-sent this round on this edge.
        count: u64,
    },
    /// A reliable-delivery vertex excused a peer as crashed (cutoff hit).
    Excuse {
        /// The excusing vertex.
        vertex: usize,
        /// The peer presumed dead.
        peer: usize,
        /// Adapter round of the verdict.
        round: u64,
    },
    /// A reliable-delivery vertex entered its close/linger window.
    LinkClose {
        /// The closing vertex.
        vertex: usize,
        /// Adapter round at which lingering began.
        round: u64,
    },
    /// One cluster's sub-run completed under a cluster-parallel backend.
    ClusterRun {
        /// Cluster index within the batch.
        cluster: usize,
        /// Rounds the cluster's executor spent.
        rounds: u64,
        /// Messages the cluster's program delivered.
        messages: u64,
    },
}

impl Event {
    /// Stable kind name (the grouping key of metrics and JSON logs).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Event::RoundOpen { .. } => "round_open",
            Event::VertexStep { .. } => "vertex_step",
            Event::RoundClose { .. } => "round_close",
            Event::Pulse { .. } => "pulse",
            Event::FaultFate { .. } => "fault_fate",
            Event::Crash { .. } => "crash",
            Event::Retransmit { .. } => "retransmit",
            Event::Excuse { .. } => "excuse",
            Event::LinkClose { .. } => "link_close",
            Event::ClusterRun { .. } => "cluster_run",
        }
    }
}

// ---------------------------------------------------------------------------
// The consumer surface
// ---------------------------------------------------------------------------

/// An object-safe consumer of trace output.
///
/// Every method defaults to a no-op so sinks implement only what they use;
/// the unit type `()` implements nothing and is the canonical no-op
/// `&mut dyn TraceSink`. Digest delivery is gated on
/// [`TraceSink::wants_digests`] so sinks that ignore state digests never pay
/// for hashing (the blanket [`RunObserver`] checks it before hashing).
pub trait TraceSink {
    /// One engine or adapter event.
    fn event(&mut self, event: &Event) {
        let _ = event;
    }

    /// A named phase span opened (merge, refine, routing, …).
    fn span_open(&mut self, name: &'static str) {
        let _ = name;
    }

    /// The innermost open span named `name` closed, having charged `rounds`
    /// rounds and `messages` messages.
    fn span_close(&mut self, name: &'static str, rounds: u64, messages: u64) {
        let _ = (name, rounds, messages);
    }

    /// Whether this sink consumes per-vertex state digests. Hashing is
    /// skipped entirely when false (the default).
    fn wants_digests(&self) -> bool {
        false
    }

    /// The digest of one vertex's state in one round (only called on sinks
    /// whose [`TraceSink::wants_digests`] is true).
    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        let _ = (engine, round, vertex, digest);
    }

    /// Round `round` is complete: every vertex digest for it has been
    /// delivered and no earlier round will be touched again.
    fn round_sealed(&mut self, engine: EngineKind, round: u64) {
        let _ = (engine, round);
    }
}

/// The canonical no-op `dyn` sink: `&mut ()` traces nothing.
impl TraceSink for () {}

/// Buffers every [`Event`] verbatim; the test sink.
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// Events in emission order.
    pub events: Vec<Event>,
    /// `(name, rounds, messages)` of closed spans, in close order.
    pub spans: Vec<(&'static str, u64, u64)>,
    digests: bool,
    /// `(engine, round, vertex, digest)` tuples, when digests are on.
    pub digest_log: Vec<(EngineKind, u64, usize, u64)>,
}

impl RecordingSink {
    /// A recorder that buffers events and spans but skips digests.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// A recorder that also logs every per-vertex digest.
    pub fn with_digests() -> Self {
        RecordingSink {
            digests: true,
            ..RecordingSink::default()
        }
    }

    /// Events of a given kind, in order.
    pub fn of_kind(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind() == kind).collect()
    }
}

impl TraceSink for RecordingSink {
    fn event(&mut self, event: &Event) {
        self.events.push(*event);
    }

    fn span_close(&mut self, name: &'static str, rounds: u64, messages: u64) {
        self.spans.push((name, rounds, messages));
    }

    fn wants_digests(&self) -> bool {
        self.digests
    }

    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        self.digest_log.push((engine, round, vertex, digest));
    }
}

/// Fans trace output to two sinks — the composition primitive.
///
/// Nest for more: `Tee::new(a, Tee::new(b, c))`.
#[derive(Debug, Default)]
pub struct Tee<A, B> {
    /// First sink (receives everything first).
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> Tee<A, B> {
    /// Composes two sinks.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn event(&mut self, event: &Event) {
        self.a.event(event);
        self.b.event(event);
    }

    fn span_open(&mut self, name: &'static str) {
        self.a.span_open(name);
        self.b.span_open(name);
    }

    fn span_close(&mut self, name: &'static str, rounds: u64, messages: u64) {
        self.a.span_close(name, rounds, messages);
        self.b.span_close(name, rounds, messages);
    }

    fn wants_digests(&self) -> bool {
        self.a.wants_digests() || self.b.wants_digests()
    }

    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        if self.a.wants_digests() {
            self.a.vertex_digest(engine, round, vertex, digest);
        }
        if self.b.wants_digests() {
            self.b.vertex_digest(engine, round, vertex, digest);
        }
    }

    fn round_sealed(&mut self, engine: EngineKind, round: u64) {
        self.a.round_sealed(engine, round);
        self.b.round_sealed(engine, round);
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit: the workspace's digest hasher.
///
/// Chosen over `DefaultHasher` because its output is *specified* — digests
/// land in `BENCH_trace.json` and in checked-in baselines, so they must not
/// change under a std upgrade.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

/// FNV-1a 64-bit offset basis (the empty chain's head).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Folds one word into a running FNV-1a chain (little-endian bytes).
pub fn fnv1a_fold(acc: u64, word: u64) -> u64 {
    let mut h = acc;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A state that can be reduced to a 64-bit digest.
///
/// Blanket-implemented for every `Hash` type via [`Fnv1a`], so programs opt
/// their state into digest tracing with `#[derive(Hash)]`. States holding
/// floats (not `Hash`) cannot be digest-traced — they can still be traced
/// with [`NullSink`] or event-only observers.
pub trait Digestible {
    /// The 64-bit digest of this value.
    fn digest(&self) -> u64;
}

impl<T: std::hash::Hash> Digestible for T {
    fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv1a::new();
        self.hash(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// The engine surface
// ---------------------------------------------------------------------------

/// The monomorphized hook surface engines thread through their hot loops.
///
/// `S` is the program's per-vertex state type. Engines guard every hook site
/// with `if O::ENABLED { ... }`, so the [`NullSink`] instantiation
/// (`ENABLED = false`) constant-folds to the untraced code path — tracing is
/// zero-cost when disabled, not merely cheap.
pub trait RunObserver<S> {
    /// Whether this observer consumes anything at all.
    const ENABLED: bool;

    /// One engine event.
    fn event(&mut self, event: &Event);

    /// Whether this observer consumes per-vertex state digests. Engines
    /// query it once per round (at a sequential point) and skip digest
    /// computation entirely when false — the same economy
    /// [`TraceSink::wants_digests`] buys the `dyn` surface.
    fn wants_digests(&self) -> bool {
        false
    }

    /// Digests one state — a pure associated function with no receiver, so
    /// engines can evaluate it *inside* their parallel sweeps (each vertex's
    /// digest computed in the worker that stepped it) and deliver the
    /// results through [`RunObserver::vertex_digest`] at the sequential
    /// commit point. Only meaningful when [`RunObserver::wants_digests`] is
    /// true; the default (digests unwanted) is never called.
    fn state_digest(state: &S) -> u64
    where
        Self: Sized,
    {
        let _ = state;
        0
    }

    /// One vertex's state at a commit point of `round`.
    fn vertex_state(&mut self, engine: EngineKind, round: u64, vertex: usize, state: &S);

    /// One vertex's precomputed state digest at a commit point of `round` —
    /// the split form of [`RunObserver::vertex_state`]: engines that hash in
    /// parallel (via [`RunObserver::state_digest`]) deliver the exact same
    /// digests here, in the exact same ascending-vertex order.
    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        let _ = (engine, round, vertex, digest);
    }

    /// Round `round` is complete (monotone: rounds seal in increasing order
    /// per engine).
    fn round_sealed(&mut self, engine: EngineKind, round: u64);
}

/// The disabled observer: every hook is an empty `#[inline]` body and
/// [`RunObserver::ENABLED`] is false, so engines compile traced entry points
/// down to the untraced ones. Implements [`RunObserver`] for *every* state
/// type — no `Hash` bound — and deliberately does not implement
/// [`TraceSink`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl<S> RunObserver<S> for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: &Event) {}

    #[inline(always)]
    fn vertex_state(&mut self, _engine: EngineKind, _round: u64, _vertex: usize, _state: &S) {}

    #[inline(always)]
    fn round_sealed(&mut self, _engine: EngineKind, _round: u64) {}
}

/// Every [`TraceSink`] observes runs whose state is [`Digestible`]: events
/// forward verbatim, states are hashed — only if the sink wants digests —
/// and seals forward verbatim.
impl<S: Digestible, T: TraceSink + ?Sized> RunObserver<S> for T {
    const ENABLED: bool = true;

    fn event(&mut self, event: &Event) {
        TraceSink::event(self, event);
    }

    fn wants_digests(&self) -> bool {
        TraceSink::wants_digests(self)
    }

    fn state_digest(state: &S) -> u64
    where
        Self: Sized,
    {
        state.digest()
    }

    fn vertex_state(&mut self, engine: EngineKind, round: u64, vertex: usize, state: &S) {
        if TraceSink::wants_digests(self) {
            TraceSink::vertex_digest(self, engine, round, vertex, state.digest());
        }
    }

    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        TraceSink::vertex_digest(self, engine, round, vertex, digest);
    }

    fn round_sealed(&mut self, engine: EngineKind, round: u64) {
        TraceSink::round_sealed(self, engine, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        use std::hash::Hasher;
        // Classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(42u64.digest(), 42u64.digest());
        assert_ne!(42u64.digest(), 43u64.digest());
        assert_ne!((1u8, 2u8).digest(), (2u8, 1u8).digest());
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = Tee::new(RecordingSink::new(), RecordingSink::with_digests());
        let e = Event::RoundOpen {
            engine: EngineKind::Executor,
            round: 1,
            active: 3,
        };
        TraceSink::event(&mut tee, &e);
        assert!(TraceSink::wants_digests(&tee));
        TraceSink::vertex_digest(&mut tee, EngineKind::Executor, 1, 0, 7);
        TraceSink::round_sealed(&mut tee, EngineKind::Executor, 1);
        assert_eq!(tee.a.events.len(), 1);
        assert_eq!(tee.b.events.len(), 1);
        // Only the digest-wanting side logs digests.
        assert!(tee.a.digest_log.is_empty());
        assert_eq!(tee.b.digest_log, vec![(EngineKind::Executor, 1, 0, 7)]);
    }

    #[test]
    fn blanket_observer_hashes_only_on_demand() {
        let mut plain = RecordingSink::new();
        RunObserver::<u64>::vertex_state(&mut plain, EngineKind::Sim, 1, 0, &9);
        assert!(plain.digest_log.is_empty());
        let mut digesting = RecordingSink::with_digests();
        RunObserver::<u64>::vertex_state(&mut digesting, EngineKind::Sim, 1, 0, &9);
        assert_eq!(digesting.digest_log.len(), 1);
        assert_eq!(digesting.digest_log[0].3, 9u64.digest());
    }

    #[test]
    fn split_digest_path_matches_vertex_state() {
        // state_digest + vertex_digest (the parallel-commit path) must land
        // the same digests as vertex_state (the legacy path).
        let d = <RecordingSink as RunObserver<u64>>::state_digest(&77);
        assert_eq!(d, 77u64.digest());
        let mut split = RecordingSink::with_digests();
        assert!(RunObserver::<u64>::wants_digests(&split));
        RunObserver::<u64>::vertex_digest(&mut split, EngineKind::Executor, 2, 5, d);
        let mut legacy = RecordingSink::with_digests();
        RunObserver::<u64>::vertex_state(&mut legacy, EngineKind::Executor, 2, 5, &77);
        assert_eq!(split.digest_log, legacy.digest_log);
    }

    #[test]
    fn null_sink_is_disabled() {
        // The hook-elision contract, asserted at compile time.
        const {
            assert!(!<NullSink as RunObserver<u64>>::ENABLED);
            assert!(<RecordingSink as RunObserver<u64>>::ENABLED);
        }
    }
}
