//! Exact (or budget-guarded near-exact) solvers used by cluster leaders.
//!
//! In the CONGEST model local computation is free, so a leader that has gathered its
//! cluster's topology may solve the cluster's sub-problem optimally. On a real
//! machine we still have to do that computation: maximum matching is solved exactly
//! with the blossom algorithm (polynomial); maximum independent set uses branch and
//! bound with degree reductions and an explicit node budget (exact for the cluster
//! sizes the decompositions produce; if the budget is ever exhausted, a greedy +
//! local-search completion is used and the caller is told); maximum cut is exact up
//! to `MAX_EXACT_CUT_VERTICES` vertices and local-search beyond.

use mfd_graph::Graph;

/// Maximum independent set result.
#[derive(Debug, Clone)]
pub struct MisSolution {
    /// Chosen vertices.
    pub vertices: Vec<usize>,
    /// Whether the solution is provably optimal (budget not exhausted).
    pub exact: bool,
}

/// Budget (number of branch-and-bound nodes) for the exact MIS solver.
pub const DEFAULT_MIS_NODE_BUDGET: usize = 60_000;

/// Computes a maximum independent set by branch and bound with degree-0/1 reductions
/// and greedy completion when the node budget runs out.
pub fn maximum_independent_set(g: &Graph, node_budget: usize) -> MisSolution {
    let n = g.n();
    let alive: Vec<bool> = vec![true; n];
    let mut best: Vec<usize> = greedy_independent_set(g);
    let mut budget = node_budget.max(1);
    let mut exact = true;
    let mut chosen: Vec<usize> = Vec::new();
    branch(g, alive, &mut chosen, &mut best, &mut budget, &mut exact);
    MisSolution {
        vertices: best,
        exact,
    }
}

fn branch(
    g: &Graph,
    mut alive: Vec<bool>,
    chosen: &mut Vec<usize>,
    best: &mut Vec<usize>,
    budget: &mut usize,
    exact: &mut bool,
) {
    if *budget == 0 {
        *exact = false;
        return;
    }
    *budget -= 1;

    // Reductions: repeatedly take degree-0 and degree-1 vertices.
    loop {
        let mut changed = false;
        for v in 0..g.n() {
            if !alive[v] {
                continue;
            }
            let live_deg = g.neighbors(v).iter().filter(|&&u| alive[u]).count();
            if live_deg == 0 {
                alive[v] = false;
                chosen.push(v);
                changed = true;
            } else if live_deg == 1 {
                let u = *g.neighbors(v).iter().find(|&&u| alive[u]).unwrap();
                alive[v] = false;
                alive[u] = false;
                chosen.push(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let remaining: Vec<usize> = (0..g.n()).filter(|&v| alive[v]).collect();
    if remaining.is_empty() {
        if chosen.len() > best.len() {
            *best = chosen.clone();
        }
        // Undo reductions recorded in `chosen` beyond the caller's prefix is handled
        // by the caller via truncation.
        return;
    }
    // Upper bound: |chosen| + |remaining| (trivial). Prune when hopeless.
    if chosen.len() + remaining.len() <= best.len() {
        return;
    }
    // Branch on a maximum-live-degree vertex.
    let v = *remaining
        .iter()
        .max_by_key(|&&v| g.neighbors(v).iter().filter(|&&u| alive[u]).count())
        .unwrap();
    let chosen_len = chosen.len();

    // Branch 1: include v (remove N[v]).
    let mut alive_incl = alive.clone();
    alive_incl[v] = false;
    for &u in g.neighbors(v) {
        alive_incl[u] = false;
    }
    chosen.push(v);
    branch(g, alive_incl, chosen, best, budget, exact);
    chosen.truncate(chosen_len);

    // Branch 2: exclude v.
    let mut alive_excl = alive;
    alive_excl[v] = false;
    branch(g, alive_excl, chosen, best, budget, exact);
    chosen.truncate(chosen_len);
}

/// Greedy independent set: repeatedly take a minimum-degree vertex and discard its
/// neighbours.
pub fn greedy_independent_set(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut alive = vec![true; n];
    let mut result = Vec::new();
    loop {
        let v = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| g.neighbors(v).iter().filter(|&&u| alive[u]).count());
        let Some(v) = v else { break };
        result.push(v);
        alive[v] = false;
        for &u in g.neighbors(v) {
            alive[u] = false;
        }
    }
    result
}

/// Verifies that `vertices` is an independent set of `g`.
pub fn is_independent_set(g: &Graph, vertices: &[usize]) -> bool {
    let mut in_set = vec![false; g.n()];
    for &v in vertices {
        if in_set[v] {
            return false;
        }
        in_set[v] = true;
    }
    g.edges().all(|(u, v)| !(in_set[u] && in_set[v]))
}

/// Verifies that `cover` is a vertex cover of `g`.
pub fn is_vertex_cover(g: &Graph, cover: &[usize]) -> bool {
    let mut in_set = vec![false; g.n()];
    for &v in cover {
        in_set[v] = true;
    }
    g.edges().all(|(u, v)| in_set[u] || in_set[v])
}

/// Verifies that `edges` form a matching of `g` (pairwise disjoint, existing edges).
pub fn is_matching(g: &Graph, edges: &[(usize, usize)]) -> bool {
    let mut used = vec![false; g.n()];
    for &(u, v) in edges {
        if u == v || !g.has_edge(u, v) || used[u] || used[v] {
            return false;
        }
        used[u] = true;
        used[v] = true;
    }
    true
}

/// Maximum matching via the blossom algorithm (O(V³)). Returns the matched partner of
/// every vertex (`usize::MAX` if unmatched).
pub fn maximum_matching(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let none = usize::MAX;
    let mut matching = vec![none; n];
    // Greedy initialization speeds things up.
    for (u, v) in g.edges() {
        if matching[u] == none && matching[v] == none {
            matching[u] = v;
            matching[v] = u;
        }
    }
    let mut parent = vec![none; n];
    let mut base = vec![0usize; n];
    let mut queue: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    let mut blossom = vec![false; n];

    fn lca(
        matching: &[usize],
        parent: &[usize],
        base: &[usize],
        mut a: usize,
        mut b: usize,
        n: usize,
    ) -> usize {
        let none = usize::MAX;
        let mut used_path = vec![false; n];
        loop {
            a = base[a];
            used_path[a] = true;
            if matching[a] == none {
                break;
            }
            a = parent[matching[a]];
        }
        loop {
            b = base[b];
            if used_path[b] {
                return b;
            }
            b = parent[matching[b]];
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn mark_path(
        matching: &[usize],
        parent: &mut [usize],
        base: &[usize],
        blossom: &mut [bool],
        mut v: usize,
        b: usize,
        mut child: usize,
    ) {
        while base[v] != b {
            blossom[base[v]] = true;
            blossom[base[matching[v]]] = true;
            parent[v] = child;
            child = matching[v];
            v = parent[matching[v]];
        }
    }

    let find_path = |root: usize,
                     matching: &mut Vec<usize>,
                     parent: &mut Vec<usize>,
                     base: &mut Vec<usize>,
                     used: &mut Vec<bool>,
                     blossom: &mut Vec<bool>,
                     queue: &mut Vec<usize>|
     -> bool {
        for v in 0..n {
            parent[v] = none;
            base[v] = v;
            used[v] = false;
        }
        used[root] = true;
        queue.clear();
        queue.push(root);
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &to in g.neighbors(v) {
                if base[v] == base[to] || matching[v] == to {
                    continue;
                }
                if to == root || (matching[to] != none && parent[matching[to]] != none) {
                    // Blossom found: contract it.
                    let curbase = lca(matching, parent, base, v, to, n);
                    for b in blossom.iter_mut() {
                        *b = false;
                    }
                    mark_path(matching, parent, base, blossom, v, curbase, to);
                    mark_path(matching, parent, base, blossom, to, curbase, v);
                    for i in 0..n {
                        if blossom[base[i]] {
                            base[i] = curbase;
                            if !used[i] {
                                used[i] = true;
                                queue.push(i);
                            }
                        }
                    }
                } else if parent[to] == none {
                    parent[to] = v;
                    if matching[to] == none {
                        // Augmenting path found: flip it.
                        let mut u = to;
                        while u != none {
                            let pv = parent[u];
                            let ppv = matching[pv];
                            matching[u] = pv;
                            matching[pv] = u;
                            u = ppv;
                        }
                        return true;
                    } else {
                        used[matching[to]] = true;
                        queue.push(matching[to]);
                    }
                }
            }
        }
        false
    };

    for v in 0..n {
        if matching[v] == none {
            find_path(
                v,
                &mut matching,
                &mut parent,
                &mut base,
                &mut used,
                &mut blossom,
                &mut queue,
            );
        }
    }
    matching
}

/// Converts a partner array (as returned by [`maximum_matching`]) into an edge list.
pub fn matching_edges(partner: &[usize]) -> Vec<(usize, usize)> {
    partner
        .iter()
        .enumerate()
        .filter(|&(v, &p)| p != usize::MAX && v < p)
        .map(|(v, &p)| (v, p))
        .collect()
}

/// Greedy maximal matching (the classic 1/2-approximation baseline).
pub(crate) fn greedy_matching(g: &Graph) -> Vec<(usize, usize)> {
    let mut used = vec![false; g.n()];
    let mut result = Vec::new();
    for (u, v) in g.edges() {
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            result.push((u, v));
        }
    }
    result
}

/// Maximum number of vertices for which max cut is solved exactly.
pub(crate) const MAX_EXACT_CUT_VERTICES: usize = 20;

/// Max-cut result.
#[derive(Debug, Clone)]
pub struct CutSolution {
    /// Side assignment (`true` = side S).
    pub side: Vec<bool>,
    /// Number of cut edges.
    pub cut_edges: usize,
    /// Whether the result is provably optimal.
    pub exact: bool,
}

/// Maximum cut: exact by enumeration for at most [`MAX_EXACT_CUT_VERTICES`] vertices,
/// otherwise single-flip local search from a deterministic start (which guarantees at
/// least half of the edges are cut).
pub(crate) fn maximum_cut(g: &Graph) -> CutSolution {
    let n = g.n();
    if n == 0 {
        return CutSolution {
            side: Vec::new(),
            cut_edges: 0,
            exact: true,
        };
    }
    if n <= MAX_EXACT_CUT_VERTICES {
        let mut best_mask = 0u64;
        let mut best_cut = 0usize;
        for bits in 0..(1u64 << (n - 1)) {
            let mut cut = 0usize;
            for (u, v) in g.edges() {
                let su = if u == 0 {
                    false
                } else {
                    bits >> (u - 1) & 1 == 1
                };
                let sv = if v == 0 {
                    false
                } else {
                    bits >> (v - 1) & 1 == 1
                };
                if su != sv {
                    cut += 1;
                }
            }
            if cut > best_cut {
                best_cut = cut;
                best_mask = bits;
            }
        }
        let side: Vec<bool> = (0..n)
            .map(|v| {
                if v == 0 {
                    false
                } else {
                    best_mask >> (v - 1) & 1 == 1
                }
            })
            .collect();
        return CutSolution {
            side,
            cut_edges: best_cut,
            exact: true,
        };
    }
    // Local search: start from the parity of BFS distances (exact on bipartite
    // graphs), then flip any vertex that improves the cut until a local optimum is
    // reached (which always cuts at least half of the edges).
    let mut side: Vec<bool> = vec![false; n];
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    side[u] = !side[v];
                    queue.push_back(u);
                }
            }
        }
    }
    loop {
        let mut improved = false;
        for v in 0..n {
            let mut same = 0i64;
            let mut cross = 0i64;
            for &u in g.neighbors(v) {
                if side[u] == side[v] {
                    same += 1;
                } else {
                    cross += 1;
                }
            }
            if same > cross {
                side[v] = !side[v];
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let cut_edges = g.edges().filter(|&(u, v)| side[u] != side[v]).count();
    CutSolution {
        side,
        cut_edges,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    /// Brute-force MIS for cross-checking (n ≤ 20).
    fn brute_force_mis(g: &Graph) -> usize {
        let n = g.n();
        assert!(n <= 20);
        let mut best = 0usize;
        for bits in 0u64..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&v| bits >> v & 1 == 1).collect();
            if is_independent_set(g, &set) {
                best = best.max(set.len());
            }
        }
        best
    }

    /// Brute-force maximum matching size (small graphs).
    fn brute_force_matching(g: &Graph) -> usize {
        fn rec(edges: &[(usize, usize)], used: &mut Vec<bool>, idx: usize) -> usize {
            if idx == edges.len() {
                return 0;
            }
            let mut best = rec(edges, used, idx + 1);
            let (u, v) = edges[idx];
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                best = best.max(1 + rec(edges, used, idx + 1));
                used[u] = false;
                used[v] = false;
            }
            best
        }
        let edges: Vec<_> = g.edges().collect();
        let mut used = vec![false; g.n()];
        rec(&edges, &mut used, 0)
    }

    #[test]
    fn mis_matches_brute_force_on_small_graphs() {
        for (g, _) in [
            (generators::cycle(9), 0),
            (generators::path(10), 1),
            (generators::complete(6), 2),
            (generators::grid(3, 4), 3),
            (generators::petersen(), 4),
            (generators::wheel(9), 5),
        ] {
            let exact = brute_force_mis(&g);
            let sol = maximum_independent_set(&g, DEFAULT_MIS_NODE_BUDGET);
            assert!(is_independent_set(&g, &sol.vertices));
            assert!(sol.exact);
            assert_eq!(sol.vertices.len(), exact);
        }
    }

    #[test]
    fn mis_on_planar_graphs_is_valid_and_at_least_greedy() {
        let g = generators::random_apollonian(150, 3);
        let sol = maximum_independent_set(&g, DEFAULT_MIS_NODE_BUDGET);
        assert!(is_independent_set(&g, &sol.vertices));
        assert!(sol.vertices.len() >= greedy_independent_set(&g).len());
        // Maximal planar graphs on n vertices have an independent set of size ≥ n/4.
        assert!(sol.vertices.len() >= 150 / 4);
    }

    #[test]
    fn blossom_matches_brute_force_on_small_graphs() {
        for g in [
            generators::cycle(9),
            generators::path(8),
            generators::complete(7),
            generators::petersen(),
            generators::complete_bipartite(3, 4),
            generators::wheel(8),
            generators::grid(3, 3),
        ] {
            let partner = maximum_matching(&g);
            let edges = matching_edges(&partner);
            assert!(is_matching(&g, &edges));
            assert_eq!(edges.len(), brute_force_matching(&g), "graph n={}", g.n());
        }
    }

    #[test]
    fn blossom_on_odd_cycles_and_random_graphs() {
        for seed in 0..6 {
            let g = generators::random_gnm(14, 30, seed);
            let partner = maximum_matching(&g);
            let edges = matching_edges(&partner);
            assert!(is_matching(&g, &edges));
            assert_eq!(edges.len(), brute_force_matching(&g), "seed {seed}");
        }
    }

    #[test]
    fn blossom_beats_or_equals_greedy_on_larger_graphs() {
        let g = generators::random_apollonian(200, 8);
        let exact = matching_edges(&maximum_matching(&g)).len();
        let greedy = greedy_matching(&g).len();
        assert!(exact >= greedy);
        assert!(is_matching(&g, &greedy_matching(&g)));
    }

    #[test]
    fn max_cut_exact_small_and_local_search_large() {
        // Bipartite graphs: the maximum cut is all edges.
        let g = generators::complete_bipartite(4, 5);
        let cut = maximum_cut(&g);
        assert!(cut.exact);
        assert_eq!(cut.cut_edges, g.m());
        // K4: max cut is 4.
        let k4 = generators::complete(4);
        assert_eq!(maximum_cut(&k4).cut_edges, 4);
        // Larger graph: local search cuts at least half the edges.
        let big = generators::triangulated_grid(8, 8);
        let cut = maximum_cut(&big);
        assert!(!cut.exact);
        assert!(cut.cut_edges * 2 >= big.m());
    }

    #[test]
    fn vertex_cover_and_matching_validators() {
        let g = generators::cycle(6);
        assert!(is_vertex_cover(&g, &[0, 2, 4]));
        assert!(!is_vertex_cover(&g, &[0, 2]));
        assert!(is_matching(&g, &[(0, 1), (2, 3)]));
        assert!(!is_matching(&g, &[(0, 1), (1, 2)]));
    }
}
