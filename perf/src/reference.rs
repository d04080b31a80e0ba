//! Harness-side expected outputs. They are written against the problem
//! statement (shortest distances; nearest centre, smallest id on ties), not
//! against the engines, so an engine change that alters an output fails the
//! iteration that produced it.

use std::hash::{Hash, Hasher};

use mfd_core::programs::{BfsState, VoronoiState};
use mfd_graph::CsrGraph;

/// `(distance to the nearest centre, that centre)` per vertex, the smallest
/// centre id winning among equally near ones; `None` where no centre reaches.
pub fn ldd_labels(g: &CsrGraph, centers: &[usize]) -> Vec<Option<(u32, u32)>> {
    let mut label: Vec<Option<(u32, u32)>> = vec![None; g.n()];
    let mut frontier: Vec<usize> = Vec::new();
    for &c in centers {
        if label[c].is_none() {
            label[c] = Some((0, c as u32));
            frontier.push(c);
        }
    }
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &v in &frontier {
            let (_, center) = label[v].expect("frontier vertices are labelled");
            for &u in g.neighbors(v) {
                match &mut label[u] {
                    slot @ None => {
                        *slot = Some((d, center));
                        next.push(u);
                    }
                    // Reached again in the same level: keep the smaller centre.
                    Some((du, cu)) if *du == d && center < *cu => *cu = center,
                    Some(_) => {}
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    label
}

/// Every vertex carries exactly the expected `(dist, center)`.
pub fn ldd_matches(states: &[VoronoiState], expected: &[Option<(u32, u32)>]) -> bool {
    states.len() == expected.len()
        && states
            .iter()
            .zip(expected)
            .all(|(s, e)| s.center.map(|c| (s.dist, c)) == *e)
}

/// Every vertex's depth equals its BFS distance (`usize::MAX` = unreached).
pub fn bfs_matches(states: &[BfsState], distances: &[usize]) -> bool {
    states.len() == distances.len()
        && states.iter().zip(distances).all(|(s, &d)| match s.depth {
            Some(depth) => depth == d as u64,
            None => d == usize::MAX,
        })
}

/// A checksum of an output, printed so that two workloads (or two builds)
/// can be seen to have produced the same states. `DefaultHasher::new()` uses
/// fixed keys, so the value repeats across runs.
pub fn checksum<T: Hash>(output: &[T]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    output.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_core::ldd::voronoi_ldd;
    use mfd_graph::gen;

    #[test]
    fn ldd_labels_agree_with_the_centralized_voronoi_ldd() {
        let g = gen::mesh(20, 20);
        let centers: Vec<usize> = (0..16).map(|i| i * g.n() / 16 + 7).collect();
        let labels = ldd_labels(&g, &centers);
        let clustering = voronoi_ldd(&g.to_graph(), &centers);
        for (v, label) in labels.iter().enumerate() {
            let (_, center) = label.expect("a mesh is connected");
            assert_eq!(
                clustering.cluster_of(v),
                clustering.cluster_of(center as usize),
                "vertex {v} must sit in its centre's cell"
            );
        }
        // The distances are shortest distances to the owning centre.
        for &c in &centers {
            let dist = g.bfs_distances(c);
            for (label, &dv) in labels.iter().zip(&dist) {
                let (d, center) = label.expect("a mesh is connected");
                assert!(d as usize <= dv);
                if center as usize == c {
                    assert_eq!(d as usize, dv);
                }
            }
        }
    }

    #[test]
    fn bfs_matches_accepts_the_reference_and_rejects_a_corrupted_depth() {
        use mfd_core::programs::BfsProgram;
        use mfd_runtime::{ShardedConfig, ShardedExecutor};
        let g = gen::mesh(20, 20);
        let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(4, 1))
            .run(&g, &BfsProgram { root: 0 })
            .expect("bfs is model-compliant");
        let dist = g.bfs_distances(0);
        assert!(bfs_matches(&run.states, &dist));
        let mut corrupted = run.states;
        corrupted[137].depth = Some(0);
        assert!(!bfs_matches(&corrupted, &dist));
        assert!(!bfs_matches(&corrupted[..10], &dist));
    }
}
