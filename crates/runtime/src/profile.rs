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
//! A run takes its profiler as an optional `&mut dyn Profiler`. The hooks
//! fire once a round and once at either end of the run, never per vertex,
//! so dynamic dispatch costs nothing measurable, and an unprofiled run reads
//! no clock at all. The trait is only the seam that keeps the recorder —
//! which turns these samples into straggler reports, traffic matrices,
//! Chrome traces, and regression localization — in `mfd-prof`, a crate this
//! one cannot name.

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
///   incoming envelopes, put into per-vertex ranges (waking their vertices):
///   scattered from two or more buckets, or a lone bucket adopted and
///   permuted in place (per-shard busy times).
/// * `commit` — the sequential resolution point: violation scan, meter seal,
///   and the delivery of every observer hook of the round. Per-vertex
///   digests are *computed* inside the parallel sweep (`step`); commit only
///   delivers the precomputed values and seals the round (the sink's
///   chain fold, possibly batched across rounds), whose wall time is broken out in
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
/// Each fact is recorded once: a shard's sent and received counts are the
/// sums of its `traffic` entries as source and as destination.
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
    /// Wall time spent inside the observer's `round_sealed` hook — for a
    /// `DigestSink`, the round's delta plus, on every fourth round or so, one
    /// sequential sweep folding the queued rounds' chains together, which
    /// makes the series lumpy by design. A sub-span of the commit phase
    /// wall; 0 when tracing is disabled.
    pub seal_ns: u64,
    /// Per-shard busy time of each phase, indexed by `PHASE_*` and then by
    /// shard. Only the parallel phases (`scan`, `step`, `deliver`) have a
    /// per-shard series; the sequential phases' stay empty.
    pub shard_busy_ns: [Vec<u64>; PHASES],
    /// Per-shard active-frontier size this round (deterministic).
    pub frontier: Vec<usize>,
    /// The round's shard→shard traffic, sparse: one `(src, dst, envelopes)`
    /// entry per route bucket the sweep pushed into, read from the router's
    /// buckets at the sequential point — ascending `src`, and within a
    /// source in the order its sweep first pushed into each bucket
    /// (deterministic). A shard pair that did not talk has no entry.
    pub traffic: Vec<(usize, usize, u64)>,
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
        for series in &mut self.shard_busy_ns {
            series.clear();
        }
        self.frontier.clear();
        self.traffic.clear();
    }
}

/// A wall-clock profiler attached to a run via
/// [`crate::ShardedExecutor::run_profiled`]. Implementations must not panic:
/// a profiler observes the run, it never steers it.
pub trait Profiler {
    /// Called once before the first round: shard count, effective worker
    /// thread count, and the wall time of initialization (state init plus
    /// the round-0 digest seal).
    fn begin(&mut self, shards: usize, threads: usize, init_ns: u64);

    /// Called at the end of every executed round's sequential tail with the
    /// complete sample. The sample's buffers are pooled — copy what you
    /// keep.
    fn record_round(&mut self, sample: &RoundSample);

    /// Called when the run completes normally, with the total wall time
    /// from the start of initialization (not called on a model violation or
    /// round-limit abort).
    fn finish(&mut self, total_ns: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reset_keeps_allocations_and_clears_series() {
        let mut s = RoundSample {
            round: 3,
            frontier: vec![5; 8],
            traffic: vec![(0, 1, 7); 64],
            ..RoundSample::default()
        };
        s.shard_busy_ns[PHASE_SCAN] = vec![1, 2];
        s.phase_wall_ns[PHASE_STEP] = 9;
        let cap = s.traffic.capacity();
        s.reset(4);
        assert_eq!(s.round, 4);
        assert!(s.frontier.is_empty() && s.traffic.is_empty());
        assert!(s.shard_busy_ns[PHASE_SCAN].is_empty());
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
}
