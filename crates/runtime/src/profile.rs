//! Wall-clock profiling hooks for the sharded engine — the measurement half
//! of the observability story.
//!
//! `mfd-trace` deliberately excludes wall clocks from the deterministic
//! record (see `docs/DETERMINISM.md`): its sinks journal *what* a run
//! computed. This module is the other half — *where the time went* — and it
//! is wired so the two halves cannot contaminate each other:
//!
//! * A [`Profiler`] only ever **reads**. Every value handed to it is either a
//!   wall-clock duration (measured around, never inside, the deterministic
//!   work) or a copy of structural per-round data (frontier sizes, routed
//!   envelope counts) the engine computes anyway.
//! * Per-shard busy times are stamped inside the parallel passes, but each
//!   shard's timestamp lives in that shard's own state, so no
//!   instrumentation introduces shared mutable state or reordering.
//! * Structural fields are copied only at the engines' existing *sequential*
//!   points — the same places observer hooks fire — so a profiled run's
//!   event stream, digest chain, meter, and final states are bit-identical
//!   to an unprofiled run's. The `profile` integration proptests pin this.
//!
//! Like [`mfd_trace::RunObserver`], the trait carries a monomorphization
//! switch: [`NoProfiler`] sets [`Profiler::ENABLED`] to `false`, and every
//! hook site is guarded by that constant, so the unprofiled instantiation
//! compiles back to the bare loop — `run_traced` *is* `run_profiled` with
//! the no-op profiler.
//!
//! The recorder that turns these samples into straggler reports, traffic
//! matrices, Chrome traces, and regression localization lives in `mfd-prof`.

/// Number of named phases in a [`RoundSample`].
pub const PHASES: usize = 6;

/// Phase names, indexed by the `PHASE_*` constants:
///
/// * `scan` — parallel drain of each shard's wake set into its active list
///   (per-shard busy times).
/// * `step` — parallel shard sweep: program execution, send bucketing, and
///   bandwidth accounting (per-shard busy times).
/// * `route` — sequential hand-over of the buckets the sweep pushed into to
///   their destination shards (pointer moves; empty buckets are not touched).
/// * `exchange` — sequential return of the drained buckets to their owning
///   shards for next-round reuse (pointer moves, the same buckets).
/// * `deliver` — parallel replacement of each shard's mailbox arena by its
///   incoming buckets, scattered in place into per-vertex ranges (waking
///   their vertices) (per-shard busy times).
/// * `commit` — the sequential resolution point: violation scan, meter seal,
///   and the delivery of every observer hook of the round. Per-vertex
///   digests are *computed* inside the parallel sweep (`step`); commit only
///   delivers the precomputed values and runs the (cheap, possibly deferred)
///   chain fold, whose wall time is broken out in
///   [`RoundSample::seal_ns`].
pub const PHASE_NAMES: [&str; PHASES] = ["scan", "step", "route", "exchange", "deliver", "commit"];

/// Index of the frontier-scan phase.
pub const PHASE_SCAN: usize = 0;
/// Index of the program-execution (sweep) phase.
pub const PHASE_STEP: usize = 1;
/// Index of the bucket-staging phase.
pub const PHASE_ROUTE: usize = 2;
/// Index of the bucket-return phase.
pub const PHASE_EXCHANGE: usize = 3;
/// Index of the mailbox-delivery phase.
pub const PHASE_DELIVER: usize = 4;
/// Index of the sequential-resolution phase.
pub const PHASE_COMMIT: usize = 5;

/// One executed round's complete profile sample: wall-clock phase timings
/// plus the structural (deterministic) per-shard series of that round.
///
/// All `*_ns` fields are wall-clock nanoseconds; `start_ns` and
/// `phase_start_ns` are offsets from the run's start, so a recorder can
/// reconstruct the real timeline (the Chrome exporter in `mfd-prof` does).
/// The per-shard vectors are indexed by shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundSample {
    /// The sealed round this sample describes (rounds start at 1; round 0,
    /// the initial configuration, is covered by the init time reported to
    /// [`Profiler::begin`]).
    pub round: u64,
    /// Offset of the round's start from the run's start.
    pub start_ns: u64,
    /// Wall time of the whole round (all phases plus loop overhead).
    pub wall_ns: u64,
    /// Per-phase start offsets from the run's start (`PHASE_*` indices).
    pub phase_start_ns: [u64; PHASES],
    /// Per-phase wall times. For parallel phases this is the pass's
    /// wall time (slowest worker); for sequential phases it equals the
    /// phase's busy time.
    pub phase_wall_ns: [u64; PHASES],
    /// Wall time spent inside the observer's `round_sealed` hook — the
    /// sequential digest-chain fold (or, for a deferring sink, the snapshot
    /// plus any batched parallel flush that fell on this round, which makes
    /// the series lumpy by design). A sub-span of the commit phase wall;
    /// 0 when tracing is disabled.
    pub seal_ns: u64,
    /// Per-shard busy time inside the frontier scan.
    pub shard_scan_ns: Vec<u64>,
    /// Per-shard busy time inside the sweep.
    pub shard_step_ns: Vec<u64>,
    /// Per-shard busy time inside delivery.
    pub shard_deliver_ns: Vec<u64>,
    /// Per-shard active-frontier size this round (deterministic).
    pub frontier: Vec<usize>,
    /// Per-shard messages sent this round (deterministic; row sums of
    /// `traffic`).
    pub sent: Vec<u64>,
    /// Per-shard envelopes resident in the readable mailboxes after
    /// delivery (deterministic; column sums of `traffic`, and the per-round
    /// series behind [`crate::ArenaStats::mailbox_slots_hwm`]).
    pub delivered: Vec<usize>,
    /// Per-shard envelopes staged in the route buckets after the sweep
    /// (deterministic; the per-round series behind
    /// [`crate::ArenaStats::route_slots_hwm`]).
    pub route_slots: Vec<usize>,
    /// The shard→shard traffic matrix, row-major (`traffic[src * shards +
    /// dst]` = envelopes sent from shard `src` to shard `dst` this round),
    /// read from the router's destination buckets at the sequential point
    /// (deterministic).
    pub traffic: Vec<u64>,
}

impl RoundSample {
    /// Clears every series and resets the scalars, keeping allocations (the
    /// engines pool one sample across rounds).
    pub(crate) fn reset(&mut self, round: u64) {
        self.round = round;
        self.start_ns = 0;
        self.wall_ns = 0;
        self.phase_start_ns = [0; PHASES];
        self.phase_wall_ns = [0; PHASES];
        self.seal_ns = 0;
        self.shard_scan_ns.clear();
        self.shard_step_ns.clear();
        self.shard_deliver_ns.clear();
        self.frontier.clear();
        self.sent.clear();
        self.delivered.clear();
        self.route_slots.clear();
        self.traffic.clear();
    }
}

/// A wall-clock profiler attached to a run via
/// [`crate::ShardedExecutor::run_profiled`].
///
/// All methods are no-op by default, and every call site is guarded by
/// [`Profiler::ENABLED`], so the [`NoProfiler`] instantiation compiles to
/// the unprofiled loop. Implementations must not panic: a profiler observes
/// the run, it never steers it.
pub trait Profiler {
    /// Monomorphization switch: `false` const-folds every hook site away.
    const ENABLED: bool = true;

    /// Called once before the first round: shard count, effective worker
    /// thread count, and the wall time of initialization (state init plus
    /// the round-0 digest seal).
    fn begin(&mut self, shards: usize, threads: usize, init_ns: u64) {
        let _ = (shards, threads, init_ns);
    }

    /// Called at the end of every executed round's sequential tail with the
    /// complete sample. The sample's buffers are pooled — copy what you
    /// keep.
    fn record_round(&mut self, sample: &RoundSample) {
        let _ = sample;
    }

    /// Called when the run completes normally, with the total wall time
    /// from the start of initialization (not called on a model violation or
    /// round-limit abort).
    fn finish(&mut self, total_ns: u64) {
        let _ = total_ns;
    }
}

/// The disabled profiler: [`Profiler::ENABLED`] is `false`, so profiled
/// entry points instantiated with it compile to the unprofiled loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProfiler;

impl Profiler for NoProfiler {
    const ENABLED: bool = false;
}

/// The engine owns its profiler by value: `run_profiled` lends the caller's,
/// a [`crate::Session`] carries a [`NoProfiler`] of its own.
impl<T: Profiler> Profiler for &mut T {
    const ENABLED: bool = T::ENABLED;

    fn begin(&mut self, shards: usize, threads: usize, init_ns: u64) {
        (**self).begin(shards, threads, init_ns);
    }

    fn record_round(&mut self, sample: &RoundSample) {
        (**self).record_round(sample);
    }

    fn finish(&mut self, total_ns: u64) {
        (**self).finish(total_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reset_keeps_allocations_and_clears_series() {
        let mut s = RoundSample {
            round: 3,
            shard_scan_ns: vec![1, 2],
            frontier: vec![5; 8],
            traffic: vec![7; 64],
            ..RoundSample::default()
        };
        s.phase_wall_ns[PHASE_STEP] = 9;
        let cap = s.traffic.capacity();
        s.reset(4);
        assert_eq!(s.round, 4);
        assert!(s.frontier.is_empty() && s.traffic.is_empty());
        assert_eq!(s.phase_wall_ns, [0; PHASES]);
        assert!(s.traffic.capacity() >= cap, "reset must keep allocations");
    }

    #[test]
    fn phase_constants_and_names_line_up() {
        assert_eq!(PHASE_NAMES[PHASE_SCAN], "scan");
        assert_eq!(PHASE_NAMES[PHASE_STEP], "step");
        assert_eq!(PHASE_NAMES[PHASE_ROUTE], "route");
        assert_eq!(PHASE_NAMES[PHASE_EXCHANGE], "exchange");
        assert_eq!(PHASE_NAMES[PHASE_DELIVER], "deliver");
        assert_eq!(PHASE_NAMES[PHASE_COMMIT], "commit");
    }

    #[test]
    fn no_profiler_is_disabled() {
        const { assert!(!NoProfiler::ENABLED) }
        // The default methods are callable no-ops.
        let mut p = NoProfiler;
        p.begin(4, 2, 10);
        p.record_round(&RoundSample::default());
        p.finish(99);
    }
}
