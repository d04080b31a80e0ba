//! One cluster-graph round, executed for real.
//!
//! The bottom-up merging of the (ε, D, T)-construction (Lemma 5.3) runs the
//! heavy-stars algorithm on the **cluster graph** — clusters as
//! super-vertices, crossing-edge counts as weights. The paper charges each
//! cluster-graph round at O(D + 1) real rounds: the leader's O(log n)-bit
//! word is disseminated through its cluster, exchanged across the boundary,
//! and an aggregate is converged back to the leader. [`ClusterRoundProgram`]
//! is that realization as a genuine [`NodeProgram`], so the executed
//! decomposition backend can *spend* those rounds on an engine instead of
//! charging them.
//!
//! The schedule is fixed at construction (the program is built centrally,
//! like the walk-schedule gatherer carries its path table) with `E` the
//! largest leader eccentricity over all clusters:
//!
//! 1. **Down + cross** — a vertex at leader-distance `d` obtains its
//!    cluster's word in round `d` (the leader starts with it) and forwards
//!    it in round `d + 1`: to every same-cluster neighbor (the flood) and
//!    across every crossing edge (the boundary exchange). All crossing
//!    words are delivered by round `E + 2`.
//! 2. **Up** — a vertex at distance `d` sends the maximum word it has heard
//!    from other clusters (its own cross receipts plus its children's
//!    aggregates) to its BFS parent in round `2E + 2 − d`; children at
//!    distance `d + 1` sent one round earlier, so the aggregate is complete
//!    when it leaves. Leaders finish aggregating in round `2E + 2`.
//!
//! The run therefore takes exactly `2E + 2 ≤ 2(D + 1)` rounds — inside the
//! metered charge the decomposition demotes to a cross-checked upper bound —
//! and every leader ends up knowing the maximum word among its *adjacent
//! clusters*, the invariant the differential tests pin.

use mfd_graph::Graph;
use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox, RuntimeMessage};

use crate::clustering::Clustering;

/// Message vocabulary of [`ClusterRoundProgram`]; one O(log n)-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRoundMsg {
    /// The cluster word flooding down from the leader.
    Down(u64),
    /// The cluster word crossing a boundary edge.
    Cross(u64),
    /// Convergecast aggregate: the maximum foreign word heard in a subtree.
    Up(u64),
}

impl RuntimeMessage for ClusterRoundMsg {}

/// Per-vertex state of [`ClusterRoundProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRoundState {
    /// The own cluster's word (leaders start with it, everyone else learns
    /// it from the flood).
    pub word: Option<u64>,
    /// Maximum word heard from *other* clusters (cross receipts plus
    /// children's aggregates); at a leader after the final round this is the
    /// maximum word among adjacent clusters.
    pub heard: Option<u64>,
}

/// One executed cluster-graph round (module docs): flood the leader word,
/// exchange it across boundaries, converge the foreign maximum back.
#[derive(Debug, Clone)]
pub struct ClusterRoundProgram {
    cluster_of: Vec<usize>,
    /// Word of each cluster (what its leader disseminates).
    words: Vec<u64>,
    /// Leader-distance within the own cluster (`usize::MAX` when the
    /// cluster's induced subgraph does not connect the vertex to its leader;
    /// such vertices sit the round out).
    depth: Vec<usize>,
    /// Parent towards the leader (`usize::MAX` at leaders and unreachable
    /// vertices): the smallest-id neighbor one level up, the repo-wide
    /// parent rule (`build_bfs_tree`, `TreeGatherProgram`).
    parent: Vec<usize>,
    /// Largest leader eccentricity over all clusters.
    max_depth: u64,
}

impl ClusterRoundProgram {
    /// Builds the realization for `clustering` with the given per-cluster
    /// leaders and words.
    ///
    /// # Panics
    ///
    /// Panics if `leaders` or `words` are not one-per-cluster, or a leader
    /// lies outside its cluster.
    pub(crate) fn new(
        g: &Graph,
        clustering: &Clustering,
        leaders: &[usize],
        words: &[u64],
    ) -> Self {
        let k = clustering.num_clusters();
        assert_eq!(leaders.len(), k, "one leader per cluster required");
        assert_eq!(words.len(), k, "one word per cluster required");
        let n = g.n();
        let cluster_of = clustering.labels().to_vec();
        let mut depth = vec![usize::MAX; n];
        let mut parent = vec![usize::MAX; n];
        for (c, &leader) in leaders.iter().enumerate() {
            assert_eq!(
                clustering.cluster_of(leader),
                c,
                "leader belongs to its cluster"
            );
            // In-cluster BFS from the leader for the depths; parents are
            // assigned in a second pass below so they follow the repo-wide
            // smallest-id-neighbor-one-level-up rule (BFS discovery order
            // alone would diverge from it at depth ≥ 2).
            let mut queue = std::collections::VecDeque::new();
            depth[leader] = 0;
            queue.push_back(leader);
            while let Some(u) = queue.pop_front() {
                for &w in g.neighbors(u) {
                    if cluster_of[w] == c && depth[w] == usize::MAX {
                        depth[w] = depth[u] + 1;
                        queue.push_back(w);
                    }
                }
            }
        }
        for w in 0..n {
            if depth[w] == usize::MAX || depth[w] == 0 {
                continue;
            }
            // Neighbors are sorted, so the first one a level up is the
            // smallest-id parent — the `build_bfs_tree` rule.
            parent[w] = g
                .neighbors(w)
                .iter()
                .copied()
                .find(|&u| cluster_of[u] == cluster_of[w] && depth[u] + 1 == depth[w])
                .expect("a reached vertex has a neighbor one level up");
        }
        let max_depth = depth
            .iter()
            .filter(|&&d| d != usize::MAX)
            .max()
            .copied()
            .unwrap_or(0) as u64;
        ClusterRoundProgram {
            cluster_of,
            words: words.to_vec(),
            depth,
            parent,
            max_depth,
        }
    }

    /// The round in which every vertex has halted: `2E + 2`.
    pub(crate) fn total_rounds(&self) -> u64 {
        2 * self.max_depth + 2
    }

    /// The round at which vertex `v` halts (its convergecast send round; the
    /// leaders' final aggregation round when `d = 0`).
    fn halt_round(&self, v: usize) -> u64 {
        match self.depth[v] {
            usize::MAX => 1,
            d => self.total_rounds() - d as u64,
        }
    }
}

impl NodeProgram for ClusterRoundProgram {
    type State = ClusterRoundState;
    type Msg = ClusterRoundMsg;

    fn init(&self, ctx: &NodeCtx) -> ClusterRoundState {
        ClusterRoundState {
            word: (self.depth[ctx.id] == 0).then(|| self.words[self.cluster_of[ctx.id]]),
            heard: None,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut ClusterRoundState,
        inbox: &[Envelope<ClusterRoundMsg>],
        out: &mut Outbox<'_, ClusterRoundMsg>,
    ) {
        for env in inbox {
            match env.msg {
                ClusterRoundMsg::Down(w) => {
                    if state.word.is_none() {
                        state.word = Some(w);
                    }
                }
                ClusterRoundMsg::Cross(w) | ClusterRoundMsg::Up(w) => {
                    state.heard = Some(state.heard.map_or(w, |h| h.max(w)));
                }
            }
        }

        let d = self.depth[ctx.id];
        if d == usize::MAX {
            return; // outside the leader's component; sits the round out
        }
        if ctx.round == d as u64 + 1 {
            // Forward round: the word arrived in this round's inbox (or at
            // init for leaders); flood it and exchange it across the
            // boundary in one go.
            let w = state.word.expect("the flood delivers the word on time");
            let own = self.cluster_of[ctx.id];
            for &u in ctx.neighbors {
                if self.cluster_of[u] == own {
                    out.send(u, ClusterRoundMsg::Down(w));
                } else {
                    out.send(u, ClusterRoundMsg::Cross(w));
                }
            }
        }
        if ctx.round == self.halt_round(ctx.id) && self.parent[ctx.id] != usize::MAX {
            if let Some(h) = state.heard {
                out.send(self.parent[ctx.id], ClusterRoundMsg::Up(h));
            }
        }
    }

    fn halted(&self, ctx: &NodeCtx, _state: &ClusterRoundState) -> bool {
        ctx.round >= self.halt_round(ctx.id)
    }

    fn round_budget_hint(&self) -> Option<u64> {
        Some(self.total_rounds() + 8)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_runtime::{Executor, ExecutorConfig};
    use mfd_sim::{SimConfig, Simulator};

    /// A 2x-blocks clustering of a grid with per-cluster max-degree leaders.
    pub(crate) fn blocks(
        g: &Graph,
        cols: usize,
        block: usize,
    ) -> (Clustering, Vec<usize>, Vec<u64>) {
        let labels: Vec<usize> = (0..g.n())
            .map(|v| (v / cols / block) * cols.div_ceil(block) + (v % cols) / block)
            .collect();
        let clustering = Clustering::from_labels(g, labels);
        let leaders: Vec<usize> = (0..clustering.num_clusters())
            .map(|c| {
                clustering
                    .members(c)
                    .iter()
                    .copied()
                    .max_by_key(|&v| g.degree(v))
                    .expect("non-empty cluster")
            })
            .collect();
        let words: Vec<u64> = leaders.iter().map(|&l| l as u64 + 1000).collect();
        (clustering, leaders, words)
    }

    /// Centrally computed expectation: max word over adjacent clusters.
    fn expected_heard(g: &Graph, clustering: &Clustering, words: &[u64]) -> Vec<Option<u64>> {
        let mut heard = vec![None; clustering.num_clusters()];
        for u in 0..g.n() {
            for &v in g.neighbors(u) {
                let (cu, cv) = (clustering.cluster_of(u), clustering.cluster_of(v));
                if cu != cv {
                    heard[cu] = Some(heard[cu].map_or(words[cv], |h: u64| h.max(words[cv])));
                }
            }
        }
        heard
    }

    #[test]
    fn leaders_learn_the_adjacent_cluster_maximum_within_the_charge() {
        for (g, cols, block) in [
            (generators::triangulated_grid(8, 8), 8, 2),
            (generators::grid(6, 9), 9, 3),
        ] {
            let (clustering, leaders, words) = blocks(&g, cols, block);
            let program = ClusterRoundProgram::new(&g, &clustering, &leaders, &words);
            let run = Executor::new(ExecutorConfig::default())
                .run(&g, &program)
                .unwrap();
            assert_eq!(run.rounds, program.total_rounds());
            let max_diam = clustering.max_cluster_diameter(&g).unwrap() as u64;
            assert!(
                run.rounds <= 2 * (max_diam + 1),
                "executed {} > charge {}",
                run.rounds,
                2 * (max_diam + 1)
            );
            let expected = expected_heard(&g, &clustering, &words);
            for (c, &leader) in leaders.iter().enumerate() {
                assert_eq!(run.states[leader].heard, expected[c], "cluster {c}");
                assert_eq!(run.states[leader].word, Some(words[c]));
            }
            // Everyone learned their own cluster's word.
            for v in 0..g.n() {
                assert_eq!(run.states[v].word, Some(words[clustering.cluster_of(v)]));
            }
        }
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let g = generators::triangulated_grid(6, 6);
        let (clustering, leaders, words) = blocks(&g, 6, 2);
        let program = ClusterRoundProgram::new(&g, &clustering, &leaders, &words);
        let sync = Executor::new(ExecutorConfig::default())
            .run(&g, &program)
            .unwrap();
        let sim = Simulator::new(SimConfig::default())
            .run(&g, &program)
            .unwrap();
        assert_eq!(sync.states, sim.states);
        assert_eq!(sync.rounds, sim.rounds);
        assert_eq!(sync.messages, sim.messages);
    }

    #[test]
    fn singleton_clusters_exchange_in_two_rounds() {
        let g = generators::cycle(6);
        let clustering = Clustering::singletons(&g);
        let leaders: Vec<usize> = (0..6).collect();
        let words: Vec<u64> = (0..6u64).map(|v| 10 + v).collect();
        let program = ClusterRoundProgram::new(&g, &clustering, &leaders, &words);
        let run = Executor::new(ExecutorConfig::default())
            .run(&g, &program)
            .unwrap();
        assert_eq!(run.rounds, 2);
        for v in 0..6 {
            let expect = g.neighbors(v).iter().map(|&u| 10 + u as u64).max().unwrap();
            assert_eq!(run.states[v].heard, Some(expect), "vertex {v}");
        }
    }

    #[test]
    fn a_single_cluster_has_nothing_to_cross() {
        let g = generators::path(5);
        let clustering = Clustering::from_labels(&g, vec![0; 5]);
        let program = ClusterRoundProgram::new(&g, &clustering, &[0], &[7]);
        let run = Executor::new(ExecutorConfig::default())
            .run(&g, &program)
            .unwrap();
        assert!(run.states.iter().all(|s| s.heard.is_none()));
        assert!(run.states.iter().all(|s| s.word == Some(7)));
    }
}
