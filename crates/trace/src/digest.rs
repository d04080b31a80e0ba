//! [`DigestSink`]: a per-round journal of the whole network's state.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rayon::prelude::*;

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
/// One sink instance journals one run (the engine tag is recorded from the
/// first seal; feeding two engines into one instance is a usage error and
/// panics).
///
/// # Deferred folding (large runs)
///
/// FNV-1a chaining is strictly sequential *within* one fold, but each
/// round's fold over the full current vector is independent of every other
/// round's — only the final head chaining (one `fnv1a_fold` per round) has
/// to run in order. Above `DEFERRED_MIN_VERTICES` (16384) the sink therefore
/// snapshots the current vector at each seal and folds a batch of snapshots
/// in parallel (rayon over rounds) before chaining the results sequentially.
/// The chain *values* are bit-identical to eager folding — the definition of
/// the chain is unchanged, only when the per-round folds execute moved — and
/// every accessor flushes first, so the deferral is unobservable. Verify
/// mode and snapshot logging need the head at every seal and stay eager.
#[derive(Debug, Default)]
pub struct DigestSink {
    engine: Option<EngineKind>,
    current: Vec<u64>,
    pending: BTreeMap<u64, Vec<(usize, u64)>>,
    snapshots: bool,
    /// Per-round copies of the per-vertex digest vector (only with
    /// [`DigestSink::with_snapshots`]), aligned with
    /// [`DigestSink::heads`].
    pub snapshot_log: Vec<Vec<u64>>,
    reference: Option<Vec<u64>>,
    first_mismatch: Option<ChainMismatch>,
    /// The chain itself plus the deferred-fold queue, behind a `RefCell`
    /// because read accessors (`head`, `chain`, `export`, …) take `&self`
    /// but must flush pending folds first.
    chain_state: RefCell<ChainState>,
}

/// Vertex count below which seals fold eagerly: deferral exists to
/// parallelize million-element folds, and below this size the snapshot copy
/// costs more than the fold.
const DEFERRED_MIN_VERTICES: usize = 1 << 14;

/// Cap on memory held by deferred snapshots (bounds the batch size on huge
/// graphs; a 10⁷-vertex run defers at most 4 rounds under this cap).
const DEFERRED_MAX_BYTES: usize = 256 << 20;

#[derive(Debug, Default)]
struct ChainState {
    /// `(round, chain head after that round)` in seal order.
    heads: Vec<(u64, u64)>,
    /// Sealed rounds whose full-vector folds are postponed:
    /// `(round, snapshot of `current` at that seal)`, in seal order.
    deferred: Vec<(u64, Vec<u64>)>,
    /// Retired snapshot buffers, reused so a steady-state deferred seal is
    /// one memcpy, not an allocation.
    spare: Vec<Vec<u64>>,
}

impl ChainState {
    fn head(&self) -> u64 {
        self.heads.last().map_or(FNV_OFFSET, |&(_, head)| head)
    }

    /// The batch size that triggers a flush: one snapshot fold per worker,
    /// memory-capped.
    fn flush_batch(n: usize) -> usize {
        let by_memory = (DEFERRED_MAX_BYTES / (8 * n.max(1))).max(1);
        rayon::current_num_threads().max(1).min(by_memory)
    }

    /// Folds every deferred snapshot (in parallel across rounds) and chains
    /// the results sequentially in seal order.
    fn flush(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let ChainState {
            heads,
            deferred,
            spare,
        } = self;
        let round_digests: Vec<u64> = deferred
            .par_iter()
            .map(|(_, snapshot)| {
                snapshot
                    .iter()
                    .fold(FNV_OFFSET, |acc, &d| fnv1a_fold(acc, d))
            })
            .collect();
        let mut head = heads.last().map_or(FNV_OFFSET, |&(_, h)| h);
        for ((round, mut snapshot), round_digest) in deferred.drain(..).zip(round_digests) {
            head = fnv1a_fold(head, round_digest);
            heads.push((round, head));
            snapshot.clear();
            spare.push(snapshot);
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

    /// Folds any deferred rounds into the chain (no-op in eager mode).
    fn flush(&self) {
        self.chain_state.borrow_mut().flush();
    }

    /// The chain head after the last sealed round (the run's digest), or the
    /// FNV offset basis for an empty run.
    pub fn head(&self) -> u64 {
        self.flush();
        self.chain_state.borrow().head()
    }

    /// `(round, chain head after that round)` per sealed round, in seal
    /// order.
    pub fn heads(&self) -> Vec<(u64, u64)> {
        self.flush();
        self.chain_state.borrow().heads.clone()
    }

    /// The chain entry of one sealed round: `(round, head)` at chain index
    /// `index` (engines seal every round, so index equals round).
    pub fn head_at(&self, index: usize) -> Option<(u64, u64)> {
        self.flush();
        self.chain_state.borrow().heads.get(index).copied()
    }

    /// Sealed rounds so far (the chain's length).
    pub fn sealed_rounds(&self) -> usize {
        self.flush();
        self.chain_state.borrow().heads.len()
    }

    /// The head sequence alone, in seal order — the input to
    /// [`crate::first_divergence`].
    pub fn chain(&self) -> Vec<u64> {
        self.flush();
        self.chain_state
            .borrow()
            .heads
            .iter()
            .map(|&(_, head)| head)
            .collect()
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
        DigestState {
            engine: self.engine,
            heads: self.heads(),
            current: self.current.clone(),
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
            current: state.current,
            pending: state.pending.into_iter().collect(),
            chain_state: RefCell::new(ChainState {
                heads: state.heads,
                ..ChainState::default()
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
        // Engines seal in increasing round order; fold every pending round
        // up to and including this one (a round with no touched vertices
        // still seals, carrying every digest forward).
        let stale: Vec<u64> = self.pending.range(..=round).map(|(&r, _)| r).collect();
        for r in stale {
            if let Some(mut touched) = self.pending.remove(&r) {
                touched.sort_unstable();
                for (vertex, digest) in touched {
                    if vertex >= self.current.len() {
                        self.current.resize(vertex + 1, 0);
                    }
                    self.current[vertex] = digest;
                }
            }
        }
        // Verify mode and snapshot logging need the head (or the vector) at
        // every seal; small runs fold cheaper than they copy. Everything
        // else defers the expensive full-vector fold and batches it in
        // parallel across rounds — same chain values, off the sequential
        // commit path.
        let eager = self.reference.is_some()
            || self.snapshots
            || self.current.len() < DEFERRED_MIN_VERTICES;
        let chain = self.chain_state.get_mut();
        if eager {
            chain.flush();
            let round_digest = self
                .current
                .iter()
                .fold(FNV_OFFSET, |acc, &d| fnv1a_fold(acc, d));
            let head = fnv1a_fold(chain.head(), round_digest);
            if let Some(reference) = &self.reference {
                if self.first_mismatch.is_none() {
                    let index = chain.heads.len();
                    let expected = reference.get(index).copied();
                    if expected != Some(head) {
                        self.first_mismatch = Some(ChainMismatch {
                            round: index as u64,
                            expected,
                            got: Some(head),
                        });
                    }
                }
            }
            chain.heads.push((round, head));
            if self.snapshots {
                self.snapshot_log.push(self.current.clone());
            }
        } else {
            let mut snapshot = chain.spare.pop().unwrap_or_default();
            snapshot.extend_from_slice(&self.current);
            chain.deferred.push((round, snapshot));
            if chain.deferred.len() >= ChainState::flush_batch(self.current.len()) {
                chain.flush();
            }
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
        // Above DEFERRED_MIN_VERTICES a plain sink defers its folds; a
        // snapshot sink is forced eager. Same digests in => the chains must
        // be bit-identical, including when accessors flush mid-run.
        let n = DEFERRED_MIN_VERTICES + 17;
        let mut deferred = DigestSink::new();
        let mut eager = DigestSink::with_snapshots();
        for round in 0..7u64 {
            for v in 0..n {
                let d = (v as u64).wrapping_mul(0x9e37) ^ round;
                deferred.vertex_digest(EngineKind::Executor, round, v, d);
                eager.vertex_digest(EngineKind::Executor, round, v, d);
            }
            deferred.round_sealed(EngineKind::Executor, round);
            eager.round_sealed(EngineKind::Executor, round);
            if round == 3 {
                // A mid-run read must flush and agree with the eager chain.
                assert_eq!(deferred.head(), eager.head(), "mid-run flush");
            }
        }
        assert_eq!(deferred.heads(), eager.heads());
        assert_eq!(deferred.chain(), eager.chain());
        assert_eq!(deferred.head(), eager.head());
        assert_eq!(deferred.sealed_rounds(), 7);
        // Export (used by checkpoints) flushes too, and round-trips.
        let state = deferred.export();
        assert_eq!(state.heads, eager.heads());
        assert_eq!(DigestSink::restore(state.clone()).export(), state);
    }

    #[test]
    fn deferred_sink_grows_into_deferral_seamlessly() {
        // The current vector starts tiny (eager) and crosses the threshold
        // mid-run (deferred): the chain must stay coherent across the mode
        // switch.
        let mut growing = DigestSink::new();
        let mut small = DigestSink::with_snapshots();
        for round in 0..4u64 {
            let n = if round < 2 {
                8
            } else {
                DEFERRED_MIN_VERTICES + 3
            };
            for v in 0..n {
                let d = ((v as u64) ^ (round << 32)) | 1;
                growing.vertex_digest(EngineKind::Executor, round, v, d);
                small.vertex_digest(EngineKind::Executor, round, v, d);
            }
            growing.round_sealed(EngineKind::Executor, round);
            small.round_sealed(EngineKind::Executor, round);
        }
        assert_eq!(growing.heads(), small.heads());
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
}
