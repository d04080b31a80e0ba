//! Message-passing ports of the centralized algorithms, as
//! [`mfd_runtime::NodeProgram`]s.
//!
//! Each program here is the *executed* counterpart of a leader-local
//! computation elsewhere in the crate, built from the same per-vertex
//! transition rules and differentially validated against it (same outputs,
//! round counts within the paper's bounds, every round checked by the
//! [`mfd_congest::RoundMeter`]):
//!
//! * [`ColeVishkinProgram`] ⇔ [`crate::cole_vishkin::color_rooted_forest_scheduled`]
//!   — O(log* n) forest 3-colouring (paper §4.1, step 2).
//! * [`BfsProgram`] ⇔ [`mfd_congest::primitives::build_bfs_tree`] — BFS-tree
//!   construction by synchronous flooding.
//! * [`VoronoiLddProgram`] ⇔ [`crate::ldd::voronoi_ldd`] — multi-source
//!   low-diameter cluster assignment (the flood at the heart of every LDD once
//!   centers are fixed).
//!
//! All three run in the strict 1-word-per-edge-per-round CONGEST model.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;
use mfd_runtime::{
    Envelope, NodeCtx, NodeProgram, Outbox, RuntimeError, RuntimeMessage, ShardedExecution,
    ShardedExecutor,
};

use crate::clustering::Clustering;
use crate::cole_vishkin::{
    cv_eliminate_pick, cv_root_reference, cv_root_shift, cv_schedule_len, cv_step, ForestColoring,
};

// ---------------------------------------------------------------------------
// Cole–Vishkin forest 3-colouring
// ---------------------------------------------------------------------------

/// Distributed Cole–Vishkin 3-colouring of a rooted forest embedded in the
/// executed graph (every parent–child pair must be a graph edge).
///
/// Protocol: every vertex sends its current colour to its children each round
/// (one word per tree edge). Rounds `2..=K+1` perform the `K =`
/// [`cv_schedule_len`] reduction steps; the following six rounds run the three
/// shift-down/recolour phases. Total: `K + 7` rounds — O(log* n) + O(1),
/// independent of the forest.
#[derive(Debug, Clone)]
pub struct ColeVishkinProgram {
    parent: Vec<usize>,
    children: Vec<Vec<usize>>,
    id: Vec<u64>,
    schedule: u64,
}

/// Per-vertex state of [`ColeVishkinProgram`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CvState {
    /// Current colour (an identifier initially; finally in `{0, 1, 2}`).
    pub color: u64,
    /// Colour held before the most recent shift-down (the uniform colour of
    /// this vertex's children during a recolour round).
    pub old_color: u64,
    done: bool,
}

impl ColeVishkinProgram {
    /// Builds the program for a rooted forest given per-vertex parent pointers
    /// (`usize::MAX` for roots) and distinct identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `parent` and `id` lengths differ.
    pub fn new(parent: Vec<usize>, id: Vec<u64>) -> Self {
        assert_eq!(parent.len(), id.len());
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for (v, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                children[p].push(v);
            }
        }
        ColeVishkinProgram {
            parent,
            children,
            id,
            schedule: cv_schedule_len(),
        }
    }

    /// Rounds this program takes to termination: `schedule + 7`.
    pub(crate) fn total_rounds(&self) -> u64 {
        self.schedule + 7
    }
}

impl NodeProgram for ColeVishkinProgram {
    type State = CvState;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> CvState {
        CvState {
            color: self.id[ctx.id],
            old_color: 0,
            done: false,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut CvState,
        inbox: &[Envelope<u64>],
        out: &mut Outbox<'_, u64>,
    ) {
        let r = ctx.round;
        let k = self.schedule;
        let is_root = self.parent[ctx.id] == usize::MAX;
        // The parent's colour as of the previous round (non-roots, r >= 2).
        let parent_color = if is_root || r < 2 {
            None
        } else {
            debug_assert_eq!(inbox.len(), 1, "exactly one message from the parent");
            debug_assert_eq!(inbox[0].src, self.parent[ctx.id]);
            Some(inbox[0].msg)
        };
        if (2..=k + 1).contains(&r) {
            // Reduction step r - 1 of K.
            let reference = parent_color.unwrap_or_else(|| cv_root_reference(state.color));
            state.color = cv_step(state.color, reference);
        } else if r > k + 1 {
            let phase = r - (k + 2);
            let eliminate = 5 - phase / 2;
            if phase.is_multiple_of(2) {
                // Shift down: adopt the parent's colour (roots rotate).
                state.old_color = state.color;
                state.color = match parent_color {
                    Some(pc) => pc,
                    None => cv_root_shift(state.color),
                };
            } else if state.color == eliminate {
                // Recolour the eliminated class. All children currently carry
                // `old_color` (this vertex's pre-shift colour); a parent and a
                // child are never recoloured in the same phase, so the
                // parent's colour received this round is stable.
                state.color = cv_eliminate_pick(parent_color.unwrap_or(u64::MAX), state.old_color);
            }
        }
        if r < self.total_rounds() {
            for &c in &self.children[ctx.id] {
                out.send(c, state.color);
            }
        } else {
            state.done = true;
        }
    }

    fn halted(&self, _ctx: &NodeCtx, state: &CvState) -> bool {
        state.done
    }
}

/// Runs [`ColeVishkinProgram`] on `g` and packages the result as a
/// [`ForestColoring`] plus the meter that validated every round.
///
/// # Errors
///
/// Propagates any [`RuntimeError`] from the executor.
pub fn run_cole_vishkin(
    g: &Graph,
    parent: &[usize],
    id: &[u64],
    executor: &ShardedExecutor,
) -> Result<(ForestColoring, RoundMeter), RuntimeError> {
    let program = ColeVishkinProgram::new(parent.to_vec(), id.to_vec());
    let run = executor.run(g, &program)?;
    let coloring = ForestColoring {
        color: run.states.iter().map(|s| s.color as u8).collect(),
        iterations: run.rounds,
    };
    Ok((coloring, run.meter))
}

// ---------------------------------------------------------------------------
// BFS-tree construction by flooding
// ---------------------------------------------------------------------------

/// Distributed BFS-tree construction: the root floods a wave of depth
/// announcements; every vertex adopts depth `d + 1` and the smallest-id
/// announcing neighbour as parent the first round offers arrive, forwards the
/// wave once, and halts. `height + 1` rounds on a connected graph.
#[derive(Debug, Clone, Copy)]
pub struct BfsProgram {
    /// The root vertex.
    pub root: usize,
}

/// Per-vertex state of [`BfsProgram`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BfsState {
    /// BFS depth, once known.
    pub depth: Option<u64>,
    /// Parent in the BFS tree (`None` for the root and unreached vertices).
    pub parent: Option<usize>,
    announced: bool,
    done: bool,
}

impl NodeProgram for BfsProgram {
    type State = BfsState;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> BfsState {
        BfsState {
            depth: (ctx.id == self.root).then_some(0),
            parent: None,
            announced: false,
            done: false,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut BfsState,
        inbox: &[Envelope<u64>],
        out: &mut Outbox<'_, u64>,
    ) {
        if state.depth.is_none() {
            if let Some(first) = inbox.first() {
                // All offers arriving in one round carry the same depth.
                debug_assert!(inbox.iter().all(|e| e.msg == first.msg));
                state.depth = Some(first.msg + 1);
                state.parent = inbox.iter().map(|e| e.src).min();
            } else if ctx.round > ctx.n as u64 {
                // No wave can take longer than n rounds: unreachable.
                state.done = true;
                return;
            }
        }
        if let Some(d) = state.depth {
            if !state.announced {
                out.broadcast(d);
                state.announced = true;
            }
            state.done = true;
        }
    }

    fn halted(&self, _ctx: &NodeCtx, state: &BfsState) -> bool {
        state.done
    }

    /// A vertex the wave has not reached yet is pure frontier-waiting: with
    /// an empty inbox its round is a no-op, so the executor may skip it. The
    /// `round > n` unreachability timeout is deliberately not encoded here —
    /// if the whole residual graph is waiting, the executor's fixpoint break
    /// ends the run with the same public outputs (no depth, no parent) the
    /// timeout would eventually produce.
    fn quiescent(&self, _ctx: &NodeCtx, state: &BfsState) -> bool {
        state.depth.is_none()
    }
}

/// Result of a distributed BFS run: per-vertex parents and depths in the same
/// encoding [`mfd_congest::BfsTree`] uses (`usize::MAX` outside the tree).
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Root vertex.
    pub root: usize,
    /// Parent of each vertex (`usize::MAX` for the root and unreached).
    pub parent: Vec<usize>,
    /// Depth of each vertex (`usize::MAX` for unreached).
    pub depth: Vec<usize>,
    /// Height of the tree.
    pub height: usize,
}

/// Runs [`BfsProgram`] from `root` on `g` and extracts the tree. The
/// program sees only its [`NodeCtx`], so the outputs are bit-identical to
/// the reference stepper's.
///
/// # Errors
///
/// Propagates any [`RuntimeError`] from the executor.
///
/// # Panics
///
/// Panics if `root` is out of range (matching
/// [`mfd_congest::primitives::build_bfs_tree`], which rejects the same input).
pub fn run_bfs(
    g: &Graph,
    root: usize,
    executor: &ShardedExecutor,
) -> Result<(BfsRun, RoundMeter), RuntimeError> {
    assert!(root < g.n(), "BFS root out of range");
    let run: ShardedExecution<BfsState> = executor.run(g, &BfsProgram { root })?;
    let parent: Vec<usize> = run
        .states
        .iter()
        .map(|s| s.parent.unwrap_or(usize::MAX))
        .collect();
    let depth: Vec<usize> = run
        .states
        .iter()
        .map(|s| s.depth.map_or(usize::MAX, |d| d as usize))
        .collect();
    let height = depth
        .iter()
        .filter(|&&d| d != usize::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    Ok((
        BfsRun {
            root,
            parent,
            depth,
            height,
        },
        run.meter,
    ))
}

// ---------------------------------------------------------------------------
// Multi-source Voronoi LDD assignment
// ---------------------------------------------------------------------------

/// A clustering offer: the flooding center and the distance at the *sender*.
/// Both fit in 32 bits for any graph this library can hold, so the pair packs
/// into a single O(log n)-bit CONGEST word.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// Center (original vertex id of the flood source).
    pub center: u32,
    /// BFS distance of the sender from that center.
    pub dist: u32,
}

impl RuntimeMessage for Offer {}

/// Distributed multi-source Voronoi clustering: centers flood in parallel,
/// every vertex joins the first wave to arrive, breaking same-round ties
/// towards the smallest center id — exactly [`crate::ldd::voronoi_ldd`].
#[derive(Debug, Clone)]
pub struct VoronoiLddProgram {
    is_center: Vec<bool>,
}

/// Per-vertex state of [`VoronoiLddProgram`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VoronoiState {
    /// Owning center, once adopted.
    pub center: Option<u32>,
    /// Distance to the owning center.
    pub dist: u32,
    announced: bool,
    done: bool,
}

impl VoronoiLddProgram {
    /// Builds the program for a given center set over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if the center set is empty while `n > 0` (matching
    /// [`crate::ldd::voronoi_ldd`]), if a center is out of range, or if `n`
    /// exceeds `u32::MAX`.
    pub fn new(n: usize, centers: &[usize]) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in 32 bits");
        assert!(
            n == 0 || !centers.is_empty(),
            "at least one center is required"
        );
        let mut is_center = vec![false; n];
        for &c in centers {
            assert!(c < n, "center out of range");
            is_center[c] = true;
        }
        VoronoiLddProgram { is_center }
    }
}

impl NodeProgram for VoronoiLddProgram {
    type State = VoronoiState;
    type Msg = Offer;

    fn init(&self, ctx: &NodeCtx) -> VoronoiState {
        VoronoiState {
            center: self.is_center[ctx.id].then_some(ctx.id as u32),
            dist: 0,
            announced: false,
            done: false,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut VoronoiState,
        inbox: &[Envelope<Offer>],
        out: &mut Outbox<'_, Offer>,
    ) {
        if state.center.is_none() {
            if let Some(first) = inbox.first() {
                // Same-round offers are all at the same distance; adopt the
                // smallest center id.
                debug_assert!(inbox.iter().all(|e| e.msg.dist == first.msg.dist));
                state.center = inbox.iter().map(|e| e.msg.center).min();
                state.dist = first.msg.dist + 1;
            } else if ctx.round > ctx.n as u64 {
                state.done = true;
                return;
            }
        }
        if let Some(center) = state.center {
            if !state.announced {
                out.broadcast(Offer {
                    center,
                    dist: state.dist,
                });
                state.announced = true;
            }
            state.done = true;
        }
    }

    fn halted(&self, _ctx: &NodeCtx, state: &VoronoiState) -> bool {
        state.done
    }

    /// Unassigned vertices wait for the first wave to arrive; skipping them
    /// on an empty inbox is a no-op (see [`BfsProgram::quiescent`] for the
    /// treatment of the unreachability timeout).
    fn quiescent(&self, _ctx: &NodeCtx, state: &VoronoiState) -> bool {
        state.center.is_none()
    }
}

/// Runs [`VoronoiLddProgram`] on `g`, with the labels packaged as a
/// [`Clustering`] (unreached vertices: singletons, as in the centralized
/// version).
///
/// # Errors
///
/// Propagates any [`RuntimeError`] from the executor.
pub fn run_voronoi_ldd(
    g: &Graph,
    centers: &[usize],
    executor: &ShardedExecutor,
) -> Result<(Clustering, RoundMeter), RuntimeError> {
    let run = executor.run(g, &VoronoiLddProgram::new(g.n(), centers))?;
    let labels = run
        .states
        .iter()
        .enumerate()
        .map(|(v, s)| s.center.map_or(v, |c| c as usize))
        .collect();
    Ok((Clustering::from_labels(g, labels), run.meter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cole_vishkin::{color_rooted_forest_scheduled, is_proper_coloring};
    use crate::ldd::voronoi_ldd;
    use mfd_congest::primitives::build_bfs_tree;
    use mfd_graph::generators;
    use mfd_graph::properties::splitmix64;
    use mfd_runtime::{ExecutorConfig, ShardedConfig};

    fn executor() -> ShardedExecutor {
        ShardedExecutor::new(ShardedConfig::default())
    }

    /// Parent pointers of the BFS spanning forest of `g` rooted at 0.
    fn spanning_forest(g: &Graph) -> Vec<usize> {
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(g, None, 0, &mut meter);
        tree.parent.clone()
    }

    #[test]
    fn cole_vishkin_matches_scheduled_centralized_run() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::wheel(40),
            generators::hypercube(6),
        ] {
            let parent = spanning_forest(&g);
            let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
            let (dist, meter) = run_cole_vishkin(&g, &parent, &id, &executor()).unwrap();
            let central = color_rooted_forest_scheduled(&parent, &id, cv_schedule_len());
            assert_eq!(dist.color, central.color, "colour-for-colour agreement");
            assert!(is_proper_coloring(&parent, &dist.color));
            assert!(dist.color.iter().all(|&c| c < 3));
            assert_eq!(dist.iterations, cv_schedule_len() + 7);
            assert!(meter.max_words_on_edge() <= meter.capacity_words());
        }
    }

    #[test]
    fn bfs_flood_matches_centralized_tree() {
        let g = generators::triangulated_grid(7, 9);
        let mut meter = RoundMeter::new();
        let central = build_bfs_tree(&g, None, 0, &mut meter);
        let (run, dist_meter) = run_bfs(&g, 0, &executor()).unwrap();
        assert_eq!(run.parent, central.parent);
        assert_eq!(run.depth, central.depth);
        assert_eq!(run.height, central.height);
        // Flooding needs one extra round to deliver the last announcements.
        assert_eq!(dist_meter.rounds(), central.height as u64 + 1);
    }

    #[test]
    fn voronoi_program_matches_centralized_assignment() {
        let g = generators::wheel(30);
        let centers = vec![0, 7, 19];
        let (dist, meter) = run_voronoi_ldd(&g, &centers, &executor()).unwrap();
        assert_eq!(dist, voronoi_ldd(&g, &centers));
        assert!(meter.rounds() <= g.n() as u64 + 1);
    }

    /// Cross-engine harness: the asynchronous simulator with unit latency
    /// must reproduce the synchronous executor **bit for bit** — every field
    /// of every per-vertex state, including the private protocol flags —
    /// for all three ported programs on all three acceptance families.
    #[test]
    fn simulator_with_unit_latency_matches_executor_bit_for_bit() {
        use mfd_sim::{run_both, LatencyModel};
        let cfg = ExecutorConfig::default();
        for g in [
            generators::triangulated_grid(8, 8),
            generators::wheel(40),
            generators::hypercube(6),
        ] {
            // Cole–Vishkin forest 3-colouring.
            let parent = spanning_forest(&g);
            let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
            let cv = ColeVishkinProgram::new(parent, id);
            let (sync, sim) = run_both(&g, &cv, &cfg, LatencyModel::Fixed(1)).unwrap();
            let key = |s: &CvState| (s.color, s.old_color, s.done);
            assert!(sync
                .states
                .iter()
                .zip(&sim.states)
                .all(|(a, b)| key(a) == key(b)));
            assert_eq!(sync.rounds, sim.rounds);
            assert_eq!(sync.messages, sim.messages);
            assert_eq!(
                sync.meter.max_words_on_edge(),
                sim.meter.max_words_on_edge()
            );

            // BFS-tree flooding.
            let (sync, sim) =
                run_both(&g, &BfsProgram { root: 0 }, &cfg, LatencyModel::Fixed(1)).unwrap();
            let key = |s: &BfsState| (s.depth, s.parent, s.announced, s.done);
            assert!(sync
                .states
                .iter()
                .zip(&sim.states)
                .all(|(a, b)| key(a) == key(b)));
            assert_eq!(sync.rounds, sim.rounds);
            assert_eq!(sync.messages, sim.messages);

            // Multi-source Voronoi LDD assignment.
            let centers = [0, g.n() / 3, (2 * g.n()) / 3];
            let voronoi = VoronoiLddProgram::new(g.n(), &centers);
            let (sync, sim) = run_both(&g, &voronoi, &cfg, LatencyModel::Fixed(1)).unwrap();
            let key = |s: &VoronoiState| (s.center, s.dist, s.announced, s.done);
            assert!(sync
                .states
                .iter()
                .zip(&sim.states)
                .all(|(a, b)| key(a) == key(b)));
            assert_eq!(sync.rounds, sim.rounds);
            assert_eq!(sync.messages, sim.messages);
        }
    }

    /// The α-synchronizer must preserve the programs' synchronous semantics
    /// under arbitrary message delays: heavy-tailed stragglers stretch the
    /// makespan but never change what is computed or how many protocol
    /// rounds it takes.
    #[test]
    fn heavy_tail_latency_changes_time_not_results() {
        use mfd_sim::{run_both, LatencyModel};
        let g = generators::triangulated_grid(8, 8);
        let cfg = ExecutorConfig::default();
        let latency = LatencyModel::HeavyTail {
            min: 1,
            alpha: 1.2,
            cap: 64,
        };
        let (sync, sim) = run_both(&g, &BfsProgram { root: 0 }, &cfg, latency).unwrap();
        let key = |s: &BfsState| (s.depth, s.parent, s.announced, s.done);
        assert!(sync
            .states
            .iter()
            .zip(&sim.states)
            .all(|(a, b)| key(a) == key(b)));
        assert_eq!(sync.rounds, sim.rounds);
        assert_eq!(sync.messages, sim.messages);
        // Stragglers make the virtual clock run past the round count.
        assert!(sim.makespan >= sim.rounds - 1);
    }

    #[test]
    fn single_vertex_graph_programs_terminate() {
        let g = Graph::new(1);
        let (coloring, _) = run_cole_vishkin(&g, &[usize::MAX], &[42], &executor()).unwrap();
        assert!(coloring.color[0] < 3);
        let (bfs, _) = run_bfs(&g, 0, &executor()).unwrap();
        assert_eq!(bfs.depth, vec![0]);
        let (cl, _) = run_voronoi_ldd(&g, &[0], &executor()).unwrap();
        assert_eq!(cl.num_clusters(), 1);
    }
}
