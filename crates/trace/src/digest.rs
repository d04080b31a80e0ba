//! [`DigestSink`]: a per-round journal of the whole network's state.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;

use crate::{fnv1a_fold, EngineKind, TraceSink, FNV_OFFSET};

/// A [`DigestSink`]'s complete journaling state as plain data, for
/// checkpoint/resume (`mfd-replay`).
///
/// [`DigestSink::export`] captures it and [`DigestSink::restore`] rebuilds a
/// sink that continues the chain exactly where the exported one stopped. The
/// `pending` digests — vertices the engine has already reported for rounds
/// not yet sealed, which the event engine produces whenever vertices run
/// ahead of the meter frontier — must travel with the engine checkpoint, or
/// the resumed chain would silently drop them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestState {
    /// The engine this sink is pinned to (`None`: nothing journaled yet).
    pub engine: Option<EngineKind>,
    /// `(round, chain head after that round)` in seal order.
    pub heads: Vec<(u64, u64)>,
    /// Carried-forward per-vertex digests as of the last sealed round.
    pub current: Vec<u64>,
    /// Reported-but-unsealed digests: `(round, [(vertex, digest)])`, sorted
    /// by round and by vertex within a round.
    pub pending: Vec<(u64, Vec<(usize, u64)>)>,
}

/// A run's first online disagreement with a reference chain (see
/// [`DigestSink::with_reference`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainMismatch {
    /// First diverging round (chain index; round 0 is the initial
    /// configuration).
    pub round: u64,
    /// The reference head at that round — `None` when the run sealed more
    /// rounds than the reference chain has.
    pub expected: Option<u64>,
    /// The run's head at that round — `None` when the run stopped short of
    /// the reference chain (detected post-run by
    /// [`DigestSink::reference_verdict`]).
    pub got: Option<u64>,
}

/// Journals one digest per sealed round covering the state of *every*
/// vertex, chained on the previous round's digest.
///
/// # The carry-forward model
///
/// The two engines touch different vertex subsets per round: the executor
/// skips quiescent vertices, the event engine executes every live vertex,
/// and with skewed latencies vertices cross a given round at different
/// virtual times. The sink therefore keeps a *current* digest per vertex,
/// updates it whenever the engine reports that vertex's state for the round
/// being sealed, and folds the **full** current vector — touched or not —
/// when the round seals. An untouched vertex contributes its carried-forward
/// digest, which is exactly its unchanged state; so two engines that agree
/// on the states agree on every round digest, regardless of which vertices
/// they bothered to execute.
///
/// Each round's folded digest is then chained onto the running head
/// (`head' = fold(head, round_digest)`), giving the prefix property the
/// [`crate::divergence`] search needs: equal heads at round `r` ⇒ equal
/// state history through `r`.
///
/// A seal applies every pending round up to the sealed one. Duplicate
/// reports resolve by two fixed rules: within one round, the *larger*
/// digest of a vertex wins (the round's reports apply in `(vertex, digest)`
/// order); across the pending rounds one seal covers, the later round's
/// report wins.
///
/// One sink instance journals one run (the engine tag is recorded from the
/// first seal; feeding two engines into one instance is a usage error and
/// panics).
///
/// # Batched folding
///
/// A round digest is one byte-wise FNV-1a chain over the whole vector, a
/// long dependent multiply chain. So a seal only queues the round's reports
/// as a delta (sorted, one entry per vertex), and a flush folds up to
/// `BATCH` (4) queued rounds in one sweep over the single per-vertex vector:
/// their chains run interleaved, a vertex no queued round touched feeds the
/// same word to every chain, each delta is applied in place as the sweep
/// passes it, and each chain stops at its own round's vector length. The
/// round digests then chain in seal order. The values are bit-identical to
/// folding each round at its seal, and every accessor flushes first. A flush
/// also runs once the queued entries reach the vector's length, bounding the
/// queue by twice the vector's bytes. Verify mode and snapshot logging need
/// every seal's head and flush each round alone.
#[derive(Debug, Default)]
pub struct DigestSink {
    engine: Option<EngineKind>,
    pending: BTreeMap<u64, Vec<(usize, u64)>>,
    snapshots: bool,
    /// Per-round copies of the per-vertex digest vector (only with
    /// [`DigestSink::with_snapshots`]), aligned with
    /// [`DigestSink::heads`].
    pub snapshot_log: Vec<Vec<u64>>,
    reference: Option<Vec<u64>>,
    first_mismatch: Option<ChainMismatch>,
    /// The chain, the per-vertex vector and the queue of unfolded rounds,
    /// behind a `RefCell` because read accessors (`head`, `chain`, `export`,
    /// …) take `&self` but must flush the queue first.
    chain_state: RefCell<ChainState>,
}

/// Sealed rounds folded per sweep: four interleaved chains keep the
/// multiplier busy where one chain waits on its own latency.
const BATCH: usize = 4;

#[derive(Debug, Default)]
struct ChainState {
    /// `(round, chain head after that round)` in seal order.
    heads: Vec<(u64, u64)>,
    /// Carried-forward per-vertex digests as of the last folded round.
    current: Vec<u64>,
    /// Sealed rounds not folded yet, in seal order: `(round, vector length
    /// at the seal, delta)`.
    queue: Vec<(u64, usize, Delta)>,
}

/// One seal's reports: a `(vertex, digest)` per vertex it set, by vertex.
type Delta = Vec<(usize, u64)>;

impl ChainState {
    fn head(&self) -> u64 {
        self.heads.last().map_or(FNV_OFFSET, |&(_, head)| head)
    }

    /// The per-vertex vector's length as of the last seal.
    fn sealed_len(&self) -> usize {
        self.queue.last().map_or(self.current.len(), |q| q.1)
    }

    /// Folds every queued round in one sweep over `current` (see
    /// [`DigestSink`], "Batched folding") and chains the round digests in
    /// seal order.
    fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let end = self.sealed_len();
        self.current.resize(end, 0);
        let mut digests = [FNV_OFFSET; BATCH];
        let mut cursors = [0usize; BATCH];
        let mut at = 0;
        while at < end {
            // Lengths never shrink in seal order, so the chains covering
            // `at` are a suffix. Up to the next vertex a queued round touched
            // or the next chain's length, every covering chain folds the
            // carried-forward words (all chains fold; the rest are restored).
            let first = self.queue.partition_point(|&(_, len, _)| len <= at);
            let next = self
                .queue
                .iter()
                .zip(&cursors)
                .filter_map(|((_, _, delta), &c)| delta.get(c).map(|&(v, _)| v))
                .fold(self.queue[first].1, usize::min);
            let mut chains = digests;
            for &word in &self.current[at..next] {
                for chain in &mut chains {
                    *chain = fnv1a_fold(*chain, word);
                }
            }
            digests[first..].copy_from_slice(&chains[first..]);
            if next == end {
                break;
            }
            let mut word = self.current[next];
            for (k, (_, len, delta)) in self.queue.iter().enumerate() {
                if let Some(&(_, d)) = delta.get(cursors[k]).filter(|&&(v, _)| v == next) {
                    word = d;
                    cursors[k] += 1;
                }
                if next < *len {
                    digests[k] = fnv1a_fold(digests[k], word);
                }
            }
            self.current[next] = word;
            at = next + 1;
        }
        let mut head = self.head();
        for ((round, _, _), digest) in self.queue.drain(..).zip(digests) {
            head = fnv1a_fold(head, digest);
            self.heads.push((round, head));
        }
    }
}

impl DigestSink {
    /// A sink journaling chain heads only.
    pub fn new() -> Self {
        DigestSink::default()
    }

    /// Also keep each round's full per-vertex digest vector, so a divergence
    /// can be localized to vertices with [`DigestSink::diverging_vertices`].
    pub fn with_snapshots() -> Self {
        DigestSink {
            snapshots: true,
            ..DigestSink::default()
        }
    }

    /// The chain state with every queued round folded in.
    fn flushed(&self) -> Ref<'_, ChainState> {
        self.chain_state.borrow_mut().flush();
        self.chain_state.borrow()
    }

    /// The chain head after the last sealed round (the run's digest), or the
    /// FNV offset basis for an empty run.
    pub fn head(&self) -> u64 {
        self.flushed().head()
    }

    /// `(round, chain head after that round)` per sealed round, in seal
    /// order.
    pub fn heads(&self) -> Vec<(u64, u64)> {
        self.flushed().heads.clone()
    }

    /// The chain entry of one sealed round: `(round, head)` at chain index
    /// `index` (engines seal every round, so index equals round).
    pub fn head_at(&self, index: usize) -> Option<(u64, u64)> {
        self.flushed().heads.get(index).copied()
    }

    /// Sealed rounds so far (the chain's length).
    pub fn sealed_rounds(&self) -> usize {
        self.flushed().heads.len()
    }

    /// The head sequence alone, in seal order — the input to
    /// [`crate::first_divergence`].
    pub fn chain(&self) -> Vec<u64> {
        self.flushed().heads.iter().map(|&(_, head)| head).collect()
    }

    /// A sink in **verify mode**: it journals as usual *and* streams every
    /// sealed head against `reference` (a chain from an earlier run or a
    /// journal), recording the first diverging round the moment it seals —
    /// online divergence detection, no second full run and no post-hoc
    /// binary search. Ask [`DigestSink::reference_verdict`] after the run
    /// (sinks observe but cannot abort an engine); it also covers the one
    /// case the stream cannot see: a run that stops short of the reference
    /// chain.
    pub fn with_reference(reference: Vec<u64>) -> Self {
        DigestSink {
            reference: Some(reference),
            ..DigestSink::default()
        }
    }

    /// The verify-mode verdict after the run: the first diverging round
    /// against the reference chain, or `None` if the run matched it
    /// round-for-round *and* sealed exactly as many rounds.
    ///
    /// A run that sealed fewer rounds than the reference diverges at its own
    /// chain's end (`expected` the reference head there, `got: None`) —
    /// the same semantics [`crate::first_divergence`] applies to
    /// unequal-length chains.
    pub fn reference_verdict(&self) -> Option<ChainMismatch> {
        let reference = self.reference.as_ref()?;
        let sealed = self.sealed_rounds();
        self.first_mismatch.or_else(|| {
            (sealed < reference.len()).then(|| ChainMismatch {
                round: sealed as u64,
                expected: Some(reference[sealed]),
                got: None,
            })
        })
    }

    /// Captures the sink's complete journaling state (see [`DigestState`]).
    ///
    /// The optional snapshot log is diagnostic output, not chaining state —
    /// it is not exported, and a restored sink starts a fresh (empty) log.
    pub fn export(&self) -> DigestState {
        let chain = self.flushed();
        DigestState {
            engine: self.engine,
            heads: chain.heads.clone(),
            current: chain.current.clone(),
            pending: self
                .pending
                .iter()
                .map(|(&round, touched)| {
                    let mut touched = touched.clone();
                    touched.sort_unstable();
                    (round, touched)
                })
                .collect(),
        }
    }

    /// Rebuilds a sink that continues the chain exactly where the exported
    /// state stopped; the inverse of [`DigestSink::export`]. Verify mode and
    /// snapshot logging are off (chain them with struct update if needed).
    pub fn restore(state: DigestState) -> Self {
        DigestSink {
            engine: state.engine,
            pending: state.pending.into_iter().collect(),
            chain_state: RefCell::new(ChainState {
                heads: state.heads,
                current: state.current,
                queue: Vec::new(),
            }),
            ..DigestSink::default()
        }
    }

    /// Vertices whose digests differ between two runs' snapshot logs at
    /// sealed-round index `index` (requires both sinks built
    /// [`DigestSink::with_snapshots`]). Vertices present in only one run
    /// count as diverging.
    pub fn diverging_vertices(a: &DigestSink, b: &DigestSink, index: usize) -> Vec<usize> {
        let (sa, sb) = (&a.snapshot_log[index], &b.snapshot_log[index]);
        let n = sa.len().max(sb.len());
        (0..n).filter(|&v| sa.get(v) != sb.get(v)).collect()
    }
}

impl TraceSink for DigestSink {
    fn wants_digests(&self) -> bool {
        true
    }

    fn vertex_digest(&mut self, engine: EngineKind, round: u64, vertex: usize, digest: u64) {
        assert_eq!(
            *self.engine.get_or_insert(engine),
            engine,
            "one DigestSink journals one run"
        );
        self.pending
            .entry(round)
            .or_default()
            .push((vertex, digest));
    }

    fn round_sealed(&mut self, engine: EngineKind, round: u64) {
        assert_eq!(
            *self.engine.get_or_insert(engine),
            engine,
            "one DigestSink journals one run"
        );
        // Engines seal in increasing round order; every pending round up to
        // and including this one joins its delta (a round with no touched
        // vertices still seals, carrying every digest forward). Reports apply
        // rounds in order, each in `(vertex, digest)` order; reversed, the
        // stable sort by vertex puts each vertex's last report first.
        let mut delta = Vec::new();
        while let Some(entry) = self.pending.first_entry().filter(|e| *e.key() <= round) {
            let mut touched = entry.remove();
            touched.sort_unstable();
            touched.splice(0..0, delta);
            delta = touched;
        }
        delta.reverse();
        delta.sort_by_key(|&(vertex, _)| vertex);
        delta.dedup_by_key(|&mut (vertex, _)| vertex);
        let chain = self.chain_state.get_mut();
        let len = chain.sealed_len().max(delta.last().map_or(0, |d| d.0 + 1));
        chain.queue.push((round, len, delta));
        let queued: usize = chain.queue.iter().map(|(_, _, delta)| delta.len()).sum();
        let eager = self.reference.is_some() || self.snapshots;
        if eager || chain.queue.len() == BATCH || queued >= len {
            chain.flush();
        }
        if let (Some(reference), None) = (&self.reference, self.first_mismatch) {
            let index = chain.heads.len() - 1;
            let (expected, head) = (reference.get(index).copied(), chain.head());
            if expected != Some(head) {
                self.first_mismatch = Some(ChainMismatch {
                    round: index as u64,
                    expected,
                    got: Some(head),
                });
            }
        }
        if self.snapshots {
            self.snapshot_log.push(chain.current.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut DigestSink, round: u64, digests: &[(usize, u64)]) {
        for &(v, d) in digests {
            sink.vertex_digest(EngineKind::Executor, round, v, d);
        }
        sink.round_sealed(EngineKind::Executor, round);
    }

    #[test]
    fn carry_forward_makes_partial_rounds_comparable() {
        // Run A touches both vertices every round; run B (a quiescence-
        // skipping engine) only reports the vertex that changed. Same
        // states => same chain.
        let mut a = DigestSink::new();
        feed(&mut a, 0, &[(0, 10), (1, 20)]);
        feed(&mut a, 1, &[(0, 11), (1, 20)]);
        let mut b = DigestSink::new();
        feed(&mut b, 0, &[(0, 10), (1, 20)]);
        feed(&mut b, 1, &[(0, 11)]); // vertex 1 untouched: carried forward
        assert_eq!(a.chain(), b.chain());
        assert_eq!(a.head(), b.head());
    }

    #[test]
    fn chains_discriminate_and_localize() {
        let mut a = DigestSink::with_snapshots();
        feed(&mut a, 0, &[(0, 10), (1, 20)]);
        feed(&mut a, 1, &[(0, 11), (1, 21)]);
        let mut b = DigestSink::with_snapshots();
        feed(&mut b, 0, &[(0, 10), (1, 20)]);
        feed(&mut b, 1, &[(0, 11), (1, 99)]);
        assert_eq!(a.head_at(0), b.head_at(0));
        assert_ne!(a.head_at(1).unwrap().1, b.head_at(1).unwrap().1);
        assert_eq!(DigestSink::diverging_vertices(&a, &b, 1), vec![1]);
    }

    #[test]
    #[should_panic(expected = "one DigestSink journals one run")]
    fn mixing_engines_panics() {
        let mut s = DigestSink::new();
        s.vertex_digest(EngineKind::Executor, 0, 0, 1);
        s.vertex_digest(EngineKind::Sim, 0, 1, 2);
    }

    #[test]
    fn export_restore_continues_the_chain_exactly() {
        // The uninterrupted run.
        let mut full = DigestSink::new();
        feed(&mut full, 0, &[(0, 10), (1, 20), (2, 30)]);
        feed(&mut full, 1, &[(0, 11), (2, 31)]);
        feed(&mut full, 2, &[(1, 22)]);
        feed(&mut full, 3, &[(0, 13), (1, 23), (2, 33)]);

        // Same prefix, exported mid-run with an unsealed pending digest (the
        // event engine regularly reports ahead of the sealed frontier).
        let mut half = DigestSink::new();
        feed(&mut half, 0, &[(0, 10), (1, 20), (2, 30)]);
        feed(&mut half, 1, &[(0, 11), (2, 31)]);
        half.vertex_digest(EngineKind::Executor, 2, 1, 22);
        let state = half.export();

        let mut resumed = DigestSink::restore(state.clone());
        resumed.round_sealed(EngineKind::Executor, 2);
        feed(&mut resumed, 3, &[(0, 13), (1, 23), (2, 33)]);
        assert_eq!(resumed.heads(), full.heads());
        assert_eq!(resumed.head(), full.head());
        // Export is a faithful round-trip too.
        assert_eq!(DigestSink::restore(state.clone()).export(), state);
    }

    #[test]
    fn verify_mode_flags_the_first_diverging_round_online() {
        let mut reference = DigestSink::new();
        for r in 0..6 {
            feed(&mut reference, r, &[(0, 100 + r), (1, 200 + r)]);
        }
        // Diverges at round 3 (vertex 1 reports a different digest).
        let mut run = DigestSink::with_reference(reference.chain());
        for r in 0..6 {
            let v1 = if r >= 3 { 999 } else { 200 + r };
            feed(&mut run, r, &[(0, 100 + r), (1, v1)]);
            if r < 3 {
                assert_eq!(run.first_mismatch, None, "round {r}");
            }
        }
        let m = run.first_mismatch.expect("divergence must be flagged");
        assert_eq!(m.round, 3);
        assert_eq!(m.expected, Some(reference.chain()[3]));
        assert!(m.got.is_some() && m.got != m.expected);
        assert_eq!(run.reference_verdict(), Some(m));
        // Only the FIRST mismatch is recorded; later seals don't overwrite.
        assert_eq!(run.first_mismatch.unwrap().round, 3);
    }

    #[test]
    fn deferred_folding_matches_eager_chain_exactly() {
        // A plain sink queues sparse rounds and folds them four per sweep; a
        // snapshot sink folds every round at its seal. Same digests in =>
        // the chains must be bit-identical, including when accessors flush a
        // part-filled batch mid-run.
        let n = 5_000;
        let mut batched = DigestSink::new();
        let mut eager = DigestSink::with_snapshots();
        for round in 0..11u64 {
            // Round 0 reports every vertex; later rounds a sparse stride.
            let stride = if round == 0 { 1 } else { 7 + round as usize };
            for v in (round as usize % 5..n).step_by(stride) {
                let d = (v as u64).wrapping_mul(0x9e37) ^ round;
                batched.vertex_digest(EngineKind::Executor, round, v, d);
                eager.vertex_digest(EngineKind::Executor, round, v, d);
            }
            batched.round_sealed(EngineKind::Executor, round);
            eager.round_sealed(EngineKind::Executor, round);
            if round == 2 {
                assert!(!batched.chain_state.borrow().queue.is_empty());
                // A mid-run read must flush and agree with the eager chain.
                assert_eq!(batched.head(), eager.head(), "mid-run flush");
            }
        }
        assert_eq!(batched.heads(), eager.heads());
        assert_eq!(batched.chain(), eager.chain());
        assert_eq!(batched.head(), eager.head());
        assert_eq!(batched.sealed_rounds(), 11);
        // Export (used by checkpoints) flushes too, and round-trips.
        let state = batched.export();
        assert_eq!(state.heads, eager.heads());
        assert_eq!(&state.current, eager.snapshot_log.last().unwrap());
        assert_eq!(DigestSink::restore(state.clone()).export(), state);
    }

    #[test]
    fn deferred_sink_grows_into_deferral_seamlessly() {
        // The vector grows inside one batch: each queued round's chain must
        // stop at its own round's length, and the zero padding must read as
        // zero until a later round writes it.
        let mut growing = DigestSink::new();
        let mut eager = DigestSink::with_snapshots();
        let mut feed_both = |round: u64, digests: &[(usize, u64)]| {
            feed(&mut growing, round, digests);
            feed(&mut eager, round, digests);
        };
        feed_both(0, &(0..64).map(|v| (v, v as u64 | 1)).collect::<Vec<_>>());
        feed_both(1, &[(3, 30)]);
        feed_both(2, &[(5, 50), (70, 700)]);
        feed_both(3, &[(66, 660)]);
        feed_both(4, &[(200, 2000), (1, 10)]);
        feed_both(5, &[]);
        feed_both(6, &[(65, 650), (300, 3000)]);
        assert_eq!(growing.export().current.len(), 301);
        assert_eq!(growing.heads(), eager.heads());
    }

    #[test]
    fn duplicate_reports_resolve_by_the_pinned_rules() {
        // Within one round the larger digest wins, whatever the order the
        // reports arrived in; across pending rounds one seal covers, the
        // later round's report wins.
        let expect = |current: &[u64]| {
            let mut sink = DigestSink::new();
            feed(
                &mut sink,
                0,
                &current.iter().copied().enumerate().collect::<Vec<_>>(),
            );
            sink.head()
        };
        let mut sink = DigestSink::new();
        feed(&mut sink, 0, &[(0, 9), (1, 4), (0, 3), (1, 8)]);
        assert_eq!(sink.export().current, vec![9, 8]);
        assert_eq!(sink.head(), expect(&[9, 8]));

        let mut sink = DigestSink::new();
        sink.vertex_digest(EngineKind::Sim, 1, 0, 100);
        sink.vertex_digest(EngineKind::Sim, 0, 0, 200);
        sink.vertex_digest(EngineKind::Sim, 0, 1, 5);
        sink.vertex_digest(EngineKind::Sim, 1, 1, 2);
        sink.round_sealed(EngineKind::Sim, 1);
        assert_eq!(sink.export().current, vec![100, 2]);
        assert_eq!(sink.heads().len(), 1);
        let mut one = DigestSink::new();
        one.vertex_digest(EngineKind::Sim, 1, 0, 100);
        one.vertex_digest(EngineKind::Sim, 1, 1, 2);
        one.round_sealed(EngineKind::Sim, 1);
        assert_eq!(sink.head(), one.head());
        assert_eq!(one.head(), expect(&[100, 2]));
    }

    #[test]
    fn verify_mode_matches_first_divergence_on_unequal_lengths() {
        let mut reference = DigestSink::new();
        for r in 0..5 {
            feed(&mut reference, r, &[(0, 7 * r + 1)]);
        }
        // A run sealing MORE rounds than the reference diverges where the
        // reference ends (expected: None).
        let mut long = DigestSink::with_reference(reference.chain());
        for r in 0..8 {
            feed(&mut long, r, &[(0, 7 * r + 1)]);
        }
        let m = long.first_mismatch.unwrap();
        assert_eq!((m.round, m.expected), (5, None));
        assert!(m.got.is_some());
        assert_eq!(
            crate::first_divergence(&long.chain(), &reference.chain()),
            Some(5)
        );

        // A run stopping SHORT is invisible to the stream but caught by the
        // post-run verdict (got: None).
        let mut short = DigestSink::with_reference(reference.chain());
        for r in 0..3 {
            feed(&mut short, r, &[(0, 7 * r + 1)]);
        }
        assert_eq!(short.first_mismatch, None);
        let v = short.reference_verdict().unwrap();
        assert_eq!((v.round, v.got), (3, None));
        assert_eq!(v.expected, Some(reference.chain()[3]));

        // An exact match is a clean verdict.
        let mut exact = DigestSink::with_reference(reference.chain());
        for r in 0..5 {
            feed(&mut exact, r, &[(0, 7 * r + 1)]);
        }
        assert_eq!(exact.reference_verdict(), None);
    }

    /// The frozen chain definition, folded eagerly: a seal applies every
    /// pending round up to it (rounds in order, each in `(vertex, digest)`
    /// order), folds the whole vector and chains the result onto the head.
    #[derive(Default)]
    struct EagerChain {
        current: Vec<u64>,
        pending: BTreeMap<u64, Vec<(usize, u64)>>,
        heads: Vec<(u64, u64)>,
    }

    impl EagerChain {
        fn seal(&mut self, round: u64) {
            let due: Vec<u64> = self.pending.range(..=round).map(|(&r, _)| r).collect();
            for r in due {
                let mut touched = self.pending.remove(&r).unwrap();
                touched.sort_unstable();
                for (vertex, digest) in touched {
                    if vertex >= self.current.len() {
                        self.current.resize(vertex + 1, 0);
                    }
                    self.current[vertex] = digest;
                }
            }
            let digest = self
                .current
                .iter()
                .fold(FNV_OFFSET, |h, &d| fnv1a_fold(h, d));
            let head = self.heads.last().map_or(FNV_OFFSET, |&(_, h)| h);
            self.heads.push((round, fnv1a_fold(head, digest)));
        }
    }

    /// SplitMix64: the stream generator of the differential property.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random report streams — sparse and dense rounds, a vector that
        /// grows inside a batch, duplicate reports for one `(round,
        /// vertex)`, reports ahead of the sealed round and seals that skip
        /// rounds (the event engine's case) — fold to the eager chain, with
        /// accessor reads and export→restore at random seals.
        #[test]
        fn batched_sink_matches_the_eager_definition(seed in 0u64..u64::MAX) {
            let mut rng = seed;
            let mut sink = if next(&mut rng).is_multiple_of(4) {
                DigestSink::with_snapshots()
            } else {
                DigestSink::new()
            };
            let mut eager = EagerChain::default();
            let mut width = 1 + (next(&mut rng) % 48) as usize;
            let mut round = 0u64;
            for _ in 0..(1 + next(&mut rng) % 14) {
                if next(&mut rng).is_multiple_of(5) {
                    width += (next(&mut rng) % 40) as usize;
                }
                let reports = match next(&mut rng) % 3 {
                    0 => width + width / 2,
                    _ => (next(&mut rng) % 6) as usize,
                };
                for _ in 0..reports {
                    let r = round + next(&mut rng) % 3;
                    let vertex = (next(&mut rng) % width as u64) as usize;
                    let digest = next(&mut rng) % 4;
                    sink.vertex_digest(EngineKind::Sim, r, vertex, digest);
                    eager.pending.entry(r).or_default().push((vertex, digest));
                }
                sink.round_sealed(EngineKind::Sim, round);
                eager.seal(round);
                if sink.snapshots {
                    proptest::prop_assert_eq!(sink.snapshot_log.last(), Some(&eager.current));
                }
                match next(&mut rng) % 6 {
                    0 => proptest::prop_assert_eq!(sink.head(), eager.heads.last().unwrap().1),
                    1 => proptest::prop_assert_eq!(sink.heads(), eager.heads.clone()),
                    2 => {
                        let index = (next(&mut rng) % (eager.heads.len() as u64 + 1)) as usize;
                        proptest::prop_assert_eq!(sink.head_at(index), eager.heads.get(index).copied());
                    }
                    3 => {
                        let state = sink.export();
                        proptest::prop_assert_eq!(&state.current, &eager.current);
                        sink = DigestSink::restore(state);
                    }
                    _ => {}
                }
                round += 1 + next(&mut rng) % 2;
            }
            proptest::prop_assert_eq!(sink.heads(), eager.heads);
        }
    }
}
