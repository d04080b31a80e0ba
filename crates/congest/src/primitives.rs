//! Distributed building blocks: BFS trees, convergecast, broadcast, pipelined
//! up/down-casts, and leader election — all metered.
//!
//! These are the LOCAL/CONGEST primitives the decomposition layer composes:
//! intra-cluster communication happens along a BFS tree of the cluster, costing
//! O(depth) rounds per aggregate/broadcast and `O(depth + Σ items / bandwidth)`
//! rounds for pipelined bulk transfers. The expander-based information gathering of
//! §2 of the paper (load balancing, random-walk schedules) lives in `mfd-routing`
//! and is used when the pipelined tree gather would be too slow.

use mfd_graph::Graph;

use crate::meter::{Message, RoundMeter};

/// A BFS tree of (a masked portion of) the graph, rooted at `root`.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Root vertex.
    pub root: usize,
    /// Parent of each vertex (`usize::MAX` for the root and for vertices outside the
    /// tree).
    pub parent: Vec<usize>,
    /// Depth of each vertex (`usize::MAX` outside the tree).
    pub depth: Vec<usize>,
    /// Tree members in BFS order (root first).
    pub members: Vec<usize>,
    /// Height of the tree (maximum depth).
    pub height: usize,
}

impl BfsTree {
    /// Returns `true` if `v` belongs to the tree.
    pub fn contains(&self, v: usize) -> bool {
        v < self.depth.len() && self.depth[v] != usize::MAX
    }

    /// Number of vertices in the tree.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Builds a BFS tree from `root` over the vertices where `mask[v]` is true
/// (the whole graph if `mask` is `None`), charging one round per BFS level and one
/// message per explored edge, as in the standard distributed BFS.
///
/// # Panics
///
/// Panics if `root` is outside the mask.
pub fn build_bfs_tree(
    g: &Graph,
    mask: Option<&[bool]>,
    root: usize,
    meter: &mut RoundMeter,
) -> BfsTree {
    let n = g.n();
    let in_mask = |v: usize| mask.is_none_or(|m| m[v]);
    assert!(in_mask(root), "BFS root must lie inside the mask");
    let mut parent = vec![usize::MAX; n];
    let mut depth = vec![usize::MAX; n];
    let mut members = Vec::new();
    depth[root] = 0;
    members.push(root);
    let mut frontier = vec![root];
    let mut height = 0usize;
    while !frontier.is_empty() {
        let mut msgs: Vec<Message> = Vec::new();
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if in_mask(u) && depth[u] == usize::MAX {
                    msgs.push(Message::word(v, u));
                    // First announcement wins; later duplicates in the same round are
                    // still sent (and charged) but ignored, as in the real protocol.
                    if parent[u] == usize::MAX || !next.contains(&u) {
                        if !next.contains(&u) {
                            next.push(u);
                        }
                        parent[u] = parent[u].min(v).min(v);
                    }
                }
            }
        }
        if msgs.is_empty() {
            break;
        }
        meter
            .round(g, &msgs)
            .expect("BFS announcements fit in one word per edge");
        for &u in &next {
            depth[u] = height + 1;
            members.push(u);
        }
        height += 1;
        frontier = next;
    }
    // Fix parents: ensure each non-root member's parent is a member one level up.
    for &u in &members {
        if u == root {
            continue;
        }
        // Recompute the parent deterministically as the smallest-index neighbor one
        // level closer to the root.
        let p = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&w| in_mask(w) && depth[w] != usize::MAX && depth[w] + 1 == depth[u])
            .min()
            .expect("BFS member must have a parent candidate");
        parent[u] = p;
    }
    BfsTree {
        root,
        parent,
        depth,
        members,
        height,
    }
}

/// Convergecast an argmax: every tree member holds a key; the root learns the member
/// with the largest `(key, vertex)` pair. Costs `height` rounds and one message per
/// tree edge.
pub fn convergecast_argmax(
    g: &Graph,
    tree: &BfsTree,
    key: &[u64],
    meter: &mut RoundMeter,
) -> (usize, u64) {
    let mut best: Vec<(u64, usize)> = (0..g.n()).map(|v| (0, v)).collect();
    for &v in &tree.members {
        best[v] = (key[v], v);
    }
    // Process levels bottom-up; one round per level.
    for level in (1..=tree.height).rev() {
        let mut msgs = Vec::new();
        for &v in &tree.members {
            if tree.depth[v] == level {
                msgs.push(Message::word(v, tree.parent[v]));
            }
        }
        if !msgs.is_empty() {
            meter
                .round(g, &msgs)
                .expect("argmax convergecast sends one word per tree edge");
        } else {
            meter.charge_rounds(1);
        }
        for &v in &tree.members {
            if tree.depth[v] == level {
                let p = tree.parent[v];
                if best[v] > best[p] {
                    best[p] = best[v];
                }
            }
        }
    }
    let (k, v) = best[tree.root];
    (v, k)
}

/// Convergecast a sum of `u64` values to the root. Costs `height` rounds.
pub fn convergecast_sum(g: &Graph, tree: &BfsTree, values: &[u64], meter: &mut RoundMeter) -> u64 {
    let mut acc: Vec<u64> = vec![0; g.n()];
    for &v in &tree.members {
        acc[v] = values[v];
    }
    for level in (1..=tree.height).rev() {
        let mut msgs = Vec::new();
        for &v in &tree.members {
            if tree.depth[v] == level {
                msgs.push(Message::word(v, tree.parent[v]));
            }
        }
        if !msgs.is_empty() {
            meter
                .round(g, &msgs)
                .expect("sum convergecast sends one word per tree edge");
        } else {
            meter.charge_rounds(1);
        }
        for &v in &tree.members {
            if tree.depth[v] == level {
                acc[tree.parent[v]] += acc[v];
            }
        }
    }
    acc[tree.root]
}

/// Broadcasts `words` words from the root to every tree member. Costs
/// `height · words` rounds (each level forwards the payload one word per round).
pub fn broadcast_words(g: &Graph, tree: &BfsTree, words: u64, meter: &mut RoundMeter) {
    if tree.height == 0 || words == 0 {
        return;
    }
    // Pipelined broadcast: height + words - 1 rounds, ≤ one word per edge per round.
    let rounds = tree.height as u64 + words - 1;
    let tree_edges = (tree.len().saturating_sub(1)) as u64;
    meter.charge_rounds(rounds);
    meter.charge_messages(tree_edges * words);
    let _ = g;
}

/// Pipelined upcast: every tree member `v` holds `counts[v]` unit messages that must
/// all reach the root; each edge forwards at most one message per round. Returns the
/// number of messages received by the root; the exact round-by-round forwarding is
/// simulated, so the returned meter reflects the true pipelined cost
/// (≈ height + Σ counts through the most loaded root edge).
pub fn upcast_pipeline(g: &Graph, tree: &BfsTree, counts: &[usize], meter: &mut RoundMeter) -> u64 {
    let n = g.n();
    let mut pending: Vec<u64> = vec![0; n];
    let mut total_expected: u64 = 0;
    for &v in &tree.members {
        pending[v] = counts[v] as u64;
        total_expected += counts[v] as u64;
    }
    let mut at_root: u64 = pending[tree.root];
    pending[tree.root] = 0;
    // Iterate rounds until everything has drained to the root.
    let mut guard = 0u64;
    let guard_limit = 4 * (total_expected + tree.height as u64 + 1) + 16;
    while at_root < total_expected {
        let mut senders = 0u64;
        // Deeper vertices first so a message can move only one hop per round.
        let mut moved: Vec<(usize, u64)> = Vec::new();
        for &v in tree.members.iter().rev() {
            if v == tree.root {
                continue;
            }
            if pending[v] > 0 {
                moved.push((v, 1));
                senders += 1;
            }
        }
        if senders == 0 {
            break;
        }
        for &(v, k) in &moved {
            pending[v] -= k;
            let p = tree.parent[v];
            if p == tree.root {
                at_root += k;
            } else {
                pending[p] += k;
            }
        }
        meter.charge_rounds(1);
        meter.charge_messages(senders);
        guard += 1;
        if guard > guard_limit {
            break;
        }
    }
    at_root
}

/// Pipelined downcast: the root disseminates `counts[v]` unit messages to each tree
/// member `v`. By reversibility of the schedule this costs exactly as much as the
/// corresponding upcast; we simulate the upcast and charge its cost.
pub fn downcast_pipeline(
    g: &Graph,
    tree: &BfsTree,
    counts: &[usize],
    meter: &mut RoundMeter,
) -> u64 {
    upcast_pipeline(g, tree, counts, meter)
}

/// Elects the maximum-degree vertex of the masked region as leader, starting from an
/// arbitrary member `start`: builds a BFS tree, convergecasts the argmax of degrees,
/// and broadcasts the winner. Returns the leader and the BFS tree (rooted at
/// `start`).
pub fn elect_max_degree_leader(
    g: &Graph,
    mask: Option<&[bool]>,
    start: usize,
    meter: &mut RoundMeter,
) -> (usize, BfsTree) {
    let tree = build_bfs_tree(g, mask, start, meter);
    let degrees: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
    let (leader, _) = convergecast_argmax(g, &tree, &degrees, meter);
    broadcast_words(g, &tree, 1, meter);
    (leader, tree)
}

/// Cost (in rounds, charged on `meter`) of gathering the full topology of the masked
/// region to the root of `tree`: every member `v` upcasts `deg(v)` edge descriptors.
/// Returns the number of edge descriptors received by the root.
pub fn gather_topology(g: &Graph, tree: &BfsTree, meter: &mut RoundMeter) -> u64 {
    let counts: Vec<usize> = (0..g.n())
        .map(|v| if tree.contains(v) { g.degree(v) } else { 0 })
        .collect();
    upcast_pipeline(g, tree, &counts, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn bfs_tree_costs_its_height() {
        let g = generators::path(10);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 0, &mut meter);
        assert_eq!(tree.height, 9);
        assert_eq!(meter.rounds(), 9);
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.depth[9], 9);
        assert_eq!(tree.parent[5], 4);
    }

    #[test]
    fn bfs_tree_respects_mask() {
        let g = generators::grid(4, 4);
        let mut mask = vec![false; 16];
        for m in mask.iter_mut().take(8) {
            *m = true;
        }
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, Some(&mask), 0, &mut meter);
        assert_eq!(tree.len(), 8);
        assert!(tree.members.iter().all(|&v| mask[v]));
    }

    #[test]
    fn argmax_finds_max_degree_vertex() {
        let g = generators::star(8);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 3, &mut meter);
        let degrees: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
        let (v, k) = convergecast_argmax(&g, &tree, &degrees, &mut meter);
        assert_eq!(v, 0);
        assert_eq!(k, 7);
    }

    #[test]
    fn sum_convergecast_adds_everything() {
        let g = generators::grid(3, 3);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 4, &mut meter);
        let values: Vec<u64> = (0..9).map(|v| v as u64).collect();
        let total = convergecast_sum(&g, &tree, &values, &mut meter);
        assert_eq!(total, 36);
    }

    #[test]
    fn upcast_pipeline_delivers_everything_and_counts_rounds() {
        let g = generators::path(5);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 0, &mut meter);
        let before = meter.rounds();
        let counts = vec![1usize; 5];
        let delivered = upcast_pipeline(&g, &tree, &counts, &mut meter);
        assert_eq!(delivered, 5);
        // The farthest message needs 4 hops; pipelining makes the total 4 + 3 = ...
        // at least the eccentricity and at least the number of non-root messages.
        let rounds = meter.rounds() - before;
        assert!(rounds >= 4);
        assert!(rounds <= 8);
    }

    #[test]
    fn upcast_on_star_is_fast() {
        let g = generators::star(9);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 0, &mut meter);
        let before = meter.rounds();
        let counts = vec![1usize; 9];
        let delivered = upcast_pipeline(&g, &tree, &counts, &mut meter);
        assert_eq!(delivered, 9);
        assert_eq!(meter.rounds() - before, 1);
    }

    #[test]
    fn leader_election_returns_max_degree_vertex() {
        let g = generators::wheel(12);
        let mut meter = RoundMeter::new();
        let (leader, tree) = elect_max_degree_leader(&g, None, 5, &mut meter);
        assert_eq!(leader, 0);
        assert_eq!(tree.root, 5);
        assert!(meter.rounds() > 0);
    }

    #[test]
    fn gather_topology_counts_edge_descriptors() {
        let g = generators::cycle(6);
        let mut meter = RoundMeter::new();
        let tree = build_bfs_tree(&g, None, 0, &mut meter);
        let received = gather_topology(&g, &tree, &mut meter);
        assert_eq!(received, 2 * g.m() as u64);
    }
}
