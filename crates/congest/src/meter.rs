//! Round and bandwidth accounting for CONGEST simulations.

use std::fmt;

use mfd_graph::Graph;

/// A single directed message submitted in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending vertex.
    pub src: usize,
    /// Receiving vertex (must be a neighbor of `src`).
    pub dst: usize,
    /// Size of the message in 64-bit words. One CONGEST message of O(log n) bits is
    /// one word for all graph sizes this library handles.
    pub words: usize,
}

impl Message {
    /// Convenience constructor for a one-word message.
    pub fn word(src: usize, dst: usize) -> Self {
        Message { src, dst, words: 1 }
    }
}

/// Errors raised when a submitted round violates the CONGEST model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestError {
    /// A message was submitted along a pair of vertices that is not an edge.
    NotAnEdge { src: usize, dst: usize },
    /// The total number of words sent over a directed edge in one round exceeded the
    /// per-round capacity.
    BandwidthExceeded {
        src: usize,
        dst: usize,
        words: usize,
        capacity: usize,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::NotAnEdge { src, dst } => {
                write!(f, "message submitted along non-edge ({src}, {dst})")
            }
            CongestError::BandwidthExceeded {
                src,
                dst,
                words,
                capacity,
            } => write!(
                f,
                "bandwidth exceeded on edge ({src}, {dst}): {words} words > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for CongestError {}

/// Statistics of one named phase of an algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase name.
    pub name: String,
    /// Rounds spent in the phase.
    pub rounds: u64,
    /// Messages sent in the phase.
    pub messages: u64,
}

/// A plain-data capture of a [`RoundMeter`]'s complete accumulator state.
///
/// Every field a meter owns, exposed for checkpoint/resume: `mfd-replay`
/// encodes a `MeterParts` into its journal and
/// [`RoundMeter::from_parts`] rebuilds a meter that continues accounting
/// exactly where the captured one stopped — `to_parts` → `from_parts` is
/// the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeterParts {
    /// Total rounds accumulated.
    pub rounds: u64,
    /// Total messages accumulated.
    pub messages: u64,
    /// Per-edge per-round capacity in words.
    pub capacity_words: usize,
    /// Largest per-edge load (in words) observed in any single round.
    pub max_words_on_edge: usize,
    /// Completed phase records.
    pub phases: Vec<PhaseRecord>,
    /// An open phase, if one is active: `(name, rounds, messages)` at
    /// [`RoundMeter::start_phase`] time.
    pub phase_start: Option<(String, u64, u64)>,
}

/// The accounting object for a CONGEST execution.
///
/// A `RoundMeter` tracks the number of synchronous rounds and messages used by an
/// algorithm (or a piece of one). Sub-computations that run **in parallel** on
/// edge-disjoint parts of the network are metered separately and folded in with
/// [`RoundMeter::merge_parallel`] (max of rounds); **sequential** composition uses
/// [`RoundMeter::merge_sequential`] (sum of rounds).
///
/// # Example
///
/// ```
/// use mfd_congest::{Message, RoundMeter};
/// use mfd_graph::generators;
///
/// let g = generators::path(4);
/// let mut meter = RoundMeter::new();
/// meter.round(&g, &[Message::word(0, 1), Message::word(2, 1)]).unwrap();
/// assert_eq!(meter.rounds(), 1);
/// assert_eq!(meter.messages(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RoundMeter {
    rounds: u64,
    messages: u64,
    capacity_words: usize,
    max_words_on_edge: usize,
    phases: Vec<PhaseRecord>,
    phase_start: Option<(String, u64, u64)>,
}

impl Default for RoundMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundMeter {
    /// Default per-edge, per-direction, per-round bandwidth in 64-bit words.
    /// One word comfortably encodes one O(log n)-bit CONGEST message for any graph
    /// this library can hold in memory.
    pub const DEFAULT_CAPACITY_WORDS: usize = 1;

    /// Creates a meter with the default bandwidth.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY_WORDS)
    }

    /// Creates a meter with a custom per-edge per-round word capacity.
    pub fn with_capacity(capacity_words: usize) -> Self {
        RoundMeter {
            rounds: 0,
            messages: 0,
            capacity_words: capacity_words.max(1),
            max_words_on_edge: 0,
            phases: Vec::new(),
            phase_start: None,
        }
    }

    /// Total rounds accumulated.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total messages accumulated.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Per-edge per-round capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// Largest per-edge load (in words) observed in any single round.
    pub fn max_words_on_edge(&self) -> usize {
        self.max_words_on_edge
    }

    /// Records one synchronous round in which the given messages are sent.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NotAnEdge`] if a message does not follow an edge of
    /// `g`, and [`CongestError::BandwidthExceeded`] if the total words over a directed
    /// edge exceed the capacity. The round is counted even in the error case so that
    /// partial accounting remains monotone.
    pub fn round(&mut self, g: &Graph, msgs: &[Message]) -> Result<(), CongestError> {
        self.rounds += 1;
        self.messages += msgs.len() as u64;
        let (max_on_edge, verdict) = Self::validate(g, msgs, self.capacity_words);
        self.max_words_on_edge = self.max_words_on_edge.max(max_on_edge);
        verdict
    }

    /// Checks whether one round's message set is admissible **without recording
    /// anything** — the verdict [`RoundMeter::round`] would return for the same
    /// input.
    ///
    /// This is the validation hook the `mfd-runtime` executor (and its
    /// property tests) build on: an executed round is committed only if this
    /// check accepts it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoundMeter::round`].
    pub fn check_round(&self, g: &Graph, msgs: &[Message]) -> Result<(), CongestError> {
        Self::validate(g, msgs, self.capacity_words).1
    }

    /// Shared validation: returns the largest per-edge load (0 after a
    /// non-edge) and the verdict.
    ///
    /// An overcommitted round names the same edge on every engine and in
    /// every process: the smallest overcommitted source's edge it sent on
    /// first, which is the edge the sharded engine meets first. `msgs` lists
    /// each source's sends in send order; how sources interleave is free.
    fn validate(
        g: &Graph,
        msgs: &[Message],
        capacity_words: usize,
    ) -> (usize, Result<(), CongestError>) {
        if let Some(m) = msgs.iter().find(|m| !g.has_edge(m.src, m.dst)) {
            return (
                0,
                Err(CongestError::NotAnEdge {
                    src: m.src,
                    dst: m.dst,
                }),
            );
        }
        // Message indices sorted by (src, dst, index): each directed edge's
        // messages form one run, headed by the first one sent on it.
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        order.sort_unstable_by_key(|&i| (msgs[i].src, msgs[i].dst, i));
        let same_edge =
            |&a: &usize, &b: &usize| (msgs[a].src, msgs[a].dst) == (msgs[b].src, msgs[b].dst);
        let mut max_on_edge = 0;
        // (index of the head message, load) of the overcommitted edge to name.
        let mut first: Option<(usize, usize)> = None;
        for run in order.chunk_by(same_edge) {
            let load: usize = run.iter().map(|&i| msgs[i].words).sum();
            max_on_edge = max_on_edge.max(load);
            let head = (msgs[run[0]].src, run[0]);
            if load > capacity_words && first.is_none_or(|(f, _)| head < (msgs[f].src, f)) {
                first = Some((run[0], load));
            }
        }
        let Some((i, load)) = first else {
            return (max_on_edge, Ok(()));
        };
        (
            max_on_edge,
            Err(CongestError::BandwidthExceeded {
                src: msgs[i].src,
                dst: msgs[i].dst,
                words: load,
                capacity: capacity_words,
            }),
        )
    }

    /// Records one synchronous round whose messages were already validated
    /// by the submitting engine: `messages` delivered, `max_words_on_edge`
    /// the largest per-directed-edge word load the engine observed.
    ///
    /// This is the flat-storage counterpart of [`RoundMeter::round`] for
    /// engines that cannot (or need not) hand over a [`Graph`]: the sharded
    /// executor validates edge membership at send time (sorted-CSR binary
    /// search) and accounts per-edge loads exactly at commit time — every
    /// directed edge has a unique source vertex, so per-source accounting
    /// covers each edge once. The accumulated totals are identical to what
    /// [`RoundMeter::round`] would have recorded for the same round.
    pub fn seal_validated_round(&mut self, messages: u64, max_words_on_edge: usize) {
        self.rounds += 1;
        self.messages += messages;
        self.max_words_on_edge = self.max_words_on_edge.max(max_words_on_edge);
    }

    /// Records `r` rounds without individual message verification.
    ///
    /// Used for sub-routines whose per-round message pattern is provably within
    /// capacity (e.g. broadcasting one word down a BFS tree) or when applying one of
    /// the paper's explicit congestion factors (e.g. the ×c overhead for overlapping
    /// clusters).
    pub fn charge_rounds(&mut self, r: u64) {
        self.rounds += r;
    }

    /// Records `m` messages without per-edge verification; companion of
    /// [`RoundMeter::charge_rounds`].
    pub fn charge_messages(&mut self, m: u64) {
        self.messages += m;
    }

    /// Folds in meters of sub-computations that ran **in parallel** on edge-disjoint
    /// parts of the graph: rounds increase by the maximum, messages by the sum.
    pub fn merge_parallel<'a>(&mut self, meters: impl IntoIterator<Item = &'a RoundMeter>) {
        let mut max_rounds = 0;
        for m in meters {
            max_rounds = max_rounds.max(m.rounds);
            self.messages += m.messages;
            self.max_words_on_edge = self.max_words_on_edge.max(m.max_words_on_edge);
        }
        self.rounds += max_rounds;
    }

    /// Folds in a meter of a sub-computation that ran **after** everything recorded so
    /// far: both rounds and messages add.
    pub fn merge_sequential(&mut self, meter: &RoundMeter) {
        self.rounds += meter.rounds;
        self.messages += meter.messages;
        self.max_words_on_edge = self.max_words_on_edge.max(meter.max_words_on_edge);
    }

    /// Starts a named phase; the next [`RoundMeter::end_phase`] records the rounds and
    /// messages spent since this call.
    pub fn start_phase(&mut self, name: &str) {
        self.phase_start = Some((name.to_string(), self.rounds, self.messages));
    }

    /// Ends the current phase (no-op if none is active).
    pub fn end_phase(&mut self) {
        if let Some((name, r0, m0)) = self.phase_start.take() {
            self.phases.push(PhaseRecord {
                name,
                rounds: self.rounds - r0,
                messages: self.messages - m0,
            });
        }
    }

    /// Phase records accumulated so far.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Captures the meter's complete state as plain data (see
    /// [`MeterParts`]).
    pub fn to_parts(&self) -> MeterParts {
        MeterParts {
            rounds: self.rounds,
            messages: self.messages,
            capacity_words: self.capacity_words,
            max_words_on_edge: self.max_words_on_edge,
            phases: self.phases.clone(),
            phase_start: self.phase_start.clone(),
        }
    }

    /// Rebuilds a meter from captured parts; the exact inverse of
    /// [`RoundMeter::to_parts`]. The capacity clamp of
    /// [`RoundMeter::with_capacity`] is *not* re-applied: parts round-trip
    /// verbatim.
    pub fn from_parts(parts: MeterParts) -> Self {
        RoundMeter {
            rounds: parts.rounds,
            messages: parts.messages,
            capacity_words: parts.capacity_words,
            max_words_on_edge: parts.max_words_on_edge,
            phases: parts.phases,
            phase_start: parts.phase_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn round_counts_and_validates_edges() {
        let g = generators::cycle(4);
        let mut meter = RoundMeter::new();
        meter
            .round(&g, &[Message::word(0, 1), Message::word(1, 2)])
            .unwrap();
        assert_eq!(meter.rounds(), 1);
        assert_eq!(meter.messages(), 2);
        let err = meter.round(&g, &[Message::word(0, 2)]).unwrap_err();
        assert_eq!(err, CongestError::NotAnEdge { src: 0, dst: 2 });
    }

    #[test]
    fn bandwidth_is_enforced_per_direction() {
        let g = generators::path(3);
        let mut meter = RoundMeter::new();
        // Two one-word messages over the same directed edge exceed a 1-word capacity.
        let err = meter
            .round(&g, &[Message::word(0, 1), Message::word(0, 1)])
            .unwrap_err();
        assert!(matches!(err, CongestError::BandwidthExceeded { .. }));
        // Opposite directions are fine.
        meter
            .round(&g, &[Message::word(0, 1), Message::word(1, 0)])
            .unwrap();
    }

    #[test]
    fn larger_capacity_allows_more_words() {
        let g = generators::path(3);
        let mut meter = RoundMeter::with_capacity(4);
        meter
            .round(
                &g,
                &[Message {
                    src: 0,
                    dst: 1,
                    words: 4,
                }],
            )
            .unwrap();
        assert_eq!(meter.max_words_on_edge(), 4);
    }

    #[test]
    fn parallel_merge_takes_max_rounds() {
        let mut a = RoundMeter::new();
        a.charge_rounds(5);
        a.charge_messages(10);
        let mut b = RoundMeter::new();
        b.charge_rounds(3);
        b.charge_messages(7);
        let mut total = RoundMeter::new();
        total.merge_parallel([&a, &b]);
        assert_eq!(total.rounds(), 5);
        assert_eq!(total.messages(), 17);
        total.merge_sequential(&b);
        assert_eq!(total.rounds(), 8);
    }

    #[test]
    fn zero_word_messages_are_counted_but_use_no_bandwidth() {
        let g = generators::path(3);
        let mut meter = RoundMeter::new();
        let zero = Message {
            src: 0,
            dst: 1,
            words: 0,
        };
        // Arbitrarily many zero-word messages on one edge stay within any capacity.
        meter.round(&g, &[zero, zero, zero]).unwrap();
        assert_eq!(meter.rounds(), 1);
        assert_eq!(meter.messages(), 3);
        assert_eq!(meter.max_words_on_edge(), 0);
        // But a zero-word message along a non-edge is still a model violation.
        let bad = Message {
            src: 0,
            dst: 2,
            words: 0,
        };
        assert_eq!(
            meter.round(&g, &[bad]).unwrap_err(),
            CongestError::NotAnEdge { src: 0, dst: 2 }
        );
    }

    #[test]
    fn exact_capacity_sends_are_admissible() {
        let g = generators::path(3);
        let mut meter = RoundMeter::with_capacity(3);
        // Exactly at capacity: three one-word messages over one directed edge.
        meter
            .round(
                &g,
                &[
                    Message::word(0, 1),
                    Message::word(0, 1),
                    Message::word(0, 1),
                ],
            )
            .unwrap();
        assert_eq!(meter.max_words_on_edge(), 3);
        // One more word over the same edge is one too many.
        let err = meter
            .round(
                &g,
                &[
                    Message::word(0, 1),
                    Message::word(0, 1),
                    Message::word(0, 1),
                    Message::word(0, 1),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::BandwidthExceeded {
                src: 0,
                dst: 1,
                words: 4,
                capacity: 3,
            }
        );
    }

    #[test]
    fn merge_identities() {
        // Parallel merge with an empty iterator is the identity.
        let mut meter = RoundMeter::new();
        meter.charge_rounds(4);
        meter.charge_messages(9);
        meter.merge_parallel(std::iter::empty());
        assert_eq!(meter.rounds(), 4);
        assert_eq!(meter.messages(), 9);
        // Merging a fresh meter changes nothing under either composition.
        let fresh = RoundMeter::new();
        meter.merge_parallel([&fresh]);
        meter.merge_sequential(&fresh);
        assert_eq!(meter.rounds(), 4);
        assert_eq!(meter.messages(), 9);
        // Sequential merge after parallel merge of a single meter equals
        // applying that meter twice sequentially.
        let mut single = RoundMeter::new();
        single.charge_rounds(2);
        single.charge_messages(5);
        let mut a = RoundMeter::new();
        a.merge_parallel([&single]);
        a.merge_sequential(&single);
        assert_eq!(a.rounds(), 4);
        assert_eq!(a.messages(), 10);
    }

    #[test]
    fn check_round_matches_round_verdict_without_recording() {
        let g = generators::cycle(5);
        let meter = RoundMeter::new();
        let good = [Message::word(0, 1), Message::word(2, 3)];
        let non_edge = [Message::word(0, 2)];
        let overload = [Message::word(0, 1), Message::word(0, 1)];
        assert!(meter.check_round(&g, &good).is_ok());
        assert!(matches!(
            meter.check_round(&g, &non_edge),
            Err(CongestError::NotAnEdge { .. })
        ));
        assert!(matches!(
            meter.check_round(&g, &overload),
            Err(CongestError::BandwidthExceeded { .. })
        ));
        // check_round records nothing.
        assert_eq!(meter.rounds(), 0);
        assert_eq!(meter.messages(), 0);
        assert_eq!(meter.max_words_on_edge(), 0);
        // And agrees with what round() returns on the same inputs.
        for msgs in [&good[..], &non_edge[..], &overload[..]] {
            let verdict = meter.check_round(&g, msgs);
            let mut recorder = RoundMeter::new();
            assert_eq!(verdict, recorder.round(&g, msgs));
        }
    }

    #[test]
    fn parts_round_trip_is_the_identity() {
        let g = generators::path(4);
        let mut meter = RoundMeter::with_capacity(3);
        meter.start_phase("first");
        meter
            .round(&g, &[Message::word(0, 1), Message::word(1, 2)])
            .unwrap();
        meter.end_phase();
        meter.start_phase("open"); // left open: phase_start must survive too
        meter.charge_rounds(2);
        meter.charge_messages(5);

        let parts = meter.to_parts();
        let mut restored = RoundMeter::from_parts(parts.clone());
        assert_eq!(restored.to_parts(), parts);

        // The restored meter continues accounting exactly where the
        // original stopped — including closing the phase left open.
        meter.round(&g, &[Message::word(2, 3)]).unwrap();
        meter.end_phase();
        restored.round(&g, &[Message::word(2, 3)]).unwrap();
        restored.end_phase();
        assert_eq!(restored.rounds(), meter.rounds());
        assert_eq!(restored.messages(), meter.messages());
        assert_eq!(restored.max_words_on_edge(), meter.max_words_on_edge());
        assert_eq!(restored.phases(), meter.phases());
    }

    #[test]
    fn phases_record_deltas() {
        let g = generators::path(4);
        let mut meter = RoundMeter::new();
        meter.start_phase("first");
        meter.round(&g, &[Message::word(0, 1)]).unwrap();
        meter.end_phase();
        meter.start_phase("second");
        meter.charge_rounds(3);
        meter.end_phase();
        assert_eq!(meter.phases().len(), 2);
        assert_eq!(meter.phases()[0].rounds, 1);
        assert_eq!(meter.phases()[1].rounds, 3);
        assert_eq!(meter.phases()[1].messages, 0);
    }
}
