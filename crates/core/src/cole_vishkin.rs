//! Cole–Vishkin 3-colouring of rooted forests.
//!
//! Step 2 of the heavy-stars algorithm (paper §4.1) 3-colours the rooted trees formed
//! by the chosen heavy edges. Cole–Vishkin reduces the number of colours from the
//! O(log n)-bit identifiers to 6 in O(log* n) iterations (each vertex only needs its
//! parent's current colour) and then to 3 with a constant number of shift-down /
//! recolour rounds. The number of iterations is reported so callers can charge the
//! corresponding CONGEST rounds (each iteration costs one round on the tree, or O(D)
//! rounds when the tree lives on a cluster graph whose vertices are diameter-D
//! clusters).

/// Result of the 3-colouring.
#[derive(Debug, Clone)]
pub struct ForestColoring {
    /// A proper colouring of the forest with colours in `{0, 1, 2}`.
    pub color: Vec<u8>,
    /// Number of synchronous iterations used (Cole–Vishkin reductions plus the
    /// constant number of shift-down/recolour rounds).
    pub iterations: u64,
}

/// One Cole–Vishkin reduction step for a single vertex: given the vertex's own
/// colour and its reference colour (the parent's colour, or
/// [`cv_root_reference`] for a root), returns the new colour.
///
/// These per-vertex transition rules are shared verbatim by the centralized
/// implementation below and the message-passing port in
/// [`crate::programs::ColeVishkinProgram`], so the two stay step-for-step
/// equivalent by construction.
pub(crate) fn cv_step(own: u64, reference: u64) -> u64 {
    debug_assert_ne!(own, reference, "colouring must stay proper");
    let diff = own ^ reference;
    let i = diff.trailing_zeros() as u64;
    (i << 1) | ((own >> i) & 1)
}

/// Artificial parent colour a root compares against (differs in bit 0).
pub(crate) fn cv_root_reference(own: u64) -> u64 {
    own ^ 1
}

/// Shift-down rule for roots: rotate within `{0, 1, 2}`.
pub(crate) fn cv_root_shift(color: u64) -> u64 {
    (color + 1) % 3
}

/// Recolouring rule for the shift-down/eliminate phase: the first colour in
/// `{0, 1, 2}` that clashes with neither the (shifted) parent colour
/// (`u64::MAX` for roots) nor the uniform colour of the children.
pub(crate) fn cv_eliminate_pick(parent_color: u64, child_color: u64) -> u64 {
    (0..3u64)
        .find(|&c| c != parent_color && c != child_color)
        .expect("three colours always leave one free")
}

/// Number of Cole–Vishkin reduction iterations guaranteed to bring arbitrary
/// distinct 64-bit identifiers below colour 6, regardless of the input.
///
/// This is the fixed, input-independent schedule every vertex of the
/// distributed port runs (O(log* n) in general; 4 for 64-bit identifiers).
/// Each iteration maps colours below `2^b` to colours below `2b`, so the bound
/// chain is 2^64 → 128 → 14 → 8 → 6.
pub fn cv_schedule_len() -> u64 {
    let mut max_color: u128 = u64::MAX as u128;
    let mut iters = 0;
    while max_color >= 6 {
        let bits = 128 - max_color.leading_zeros() as u128;
        max_color = 2 * (bits - 1) + 1;
        iters += 1;
    }
    iters
}

/// Computes a proper 3-colouring of a rooted forest with a **fixed schedule**
/// of exactly `schedule` Cole–Vishkin reduction iterations (then the usual
/// three shift-down/eliminate phases).
///
/// Unlike `color_rooted_forest`, which stops reducing as soon as the global
/// maximum colour drops below 6 (a data-dependent condition no real vertex
/// can evaluate locally), this variant runs the input-independent schedule a
/// distributed execution uses — it is the centralized reference the runtime
/// port is differentially validated against. `schedule` must be at least
/// [`cv_schedule_len`] for 64-bit identifiers.
///
/// # Panics
///
/// Panics if `parent` and `id` have different lengths, or if the colouring
/// would lose properness (only possible with non-distinct identifiers).
pub fn color_rooted_forest_scheduled(
    parent: &[usize],
    id: &[u64],
    schedule: u64,
) -> ForestColoring {
    assert_eq!(parent.len(), id.len());
    let n = parent.len();
    if n == 0 {
        return ForestColoring {
            color: Vec::new(),
            iterations: 0,
        };
    }
    let mut color: Vec<u64> = id.to_vec();
    let mut iterations = 0u64;
    for _ in 0..schedule {
        let next: Vec<u64> = (0..n)
            .map(|v| {
                let reference = if parent[v] == usize::MAX {
                    cv_root_reference(color[v])
                } else {
                    color[parent[v]]
                };
                cv_step(color[v], reference)
            })
            .collect();
        color = next;
        iterations += 1;
    }
    for eliminate in (3..6).rev() {
        let shifted: Vec<u64> = (0..n)
            .map(|v| {
                if parent[v] == usize::MAX {
                    cv_root_shift(color[v])
                } else {
                    color[parent[v]]
                }
            })
            .collect();
        iterations += 1;
        let old = color.clone();
        color = shifted;
        for v in 0..n {
            if color[v] == eliminate {
                let parent_color = if parent[v] == usize::MAX {
                    u64::MAX
                } else {
                    color[parent[v]]
                };
                color[v] = cv_eliminate_pick(parent_color, old[v]);
            }
        }
        iterations += 1;
    }
    debug_assert!(verify_proper(parent, &color));
    ForestColoring {
        color: color.into_iter().map(|c| c as u8).collect(),
        iterations,
    }
}

/// Computes a proper 3-colouring of a rooted forest.
///
/// `parent[v]` is the parent of node `v`, or `usize::MAX` if `v` is a root.
/// `id[v]` are distinct identifiers (they seed the initial colouring).
///
/// # Panics
///
/// Panics if `parent` and `id` have different lengths, or if identifiers are not
/// distinct between a node and its parent.
pub(crate) fn color_rooted_forest(parent: &[usize], id: &[u64]) -> ForestColoring {
    assert_eq!(parent.len(), id.len());
    let n = parent.len();
    if n == 0 {
        return ForestColoring {
            color: Vec::new(),
            iterations: 0,
        };
    }
    let mut color: Vec<u64> = id.to_vec();
    let mut iterations = 0u64;

    // Phase 1: Cole–Vishkin reduction to at most 6 colours.
    let max_iters = 64;
    while color.iter().max().copied().unwrap_or(0) >= 6 && iterations < max_iters {
        let mut next = vec![0u64; n];
        for v in 0..n {
            let own = color[v];
            let reference = if parent[v] == usize::MAX {
                // Roots compare against an artificial parent colour differing in bit 0.
                cv_root_reference(own)
            } else {
                let p = color[parent[v]];
                assert_ne!(own, p, "colouring must stay proper (parent/child clash)");
                p
            };
            next[v] = cv_step(own, reference);
        }
        color = next;
        iterations += 1;
    }

    // Phase 2: eliminate colours 5, 4, 3 one at a time. Each elimination does a
    // shift-down (children adopt the parent's previous colour, roots rotate) followed
    // by recolouring the eliminated class with a free colour in {0, 1, 2}.
    for eliminate in (3..6).rev() {
        // Shift down.
        let mut shifted = vec![0u64; n];
        for v in 0..n {
            shifted[v] = if parent[v] == usize::MAX {
                cv_root_shift(color[v])
            } else {
                color[parent[v]]
            };
        }
        iterations += 1;
        // After the shift, all children of a node share its old colour, so a node of
        // the eliminated colour can pick any colour in {0,1,2} different from its own
        // parent's (shifted) colour and from its (uniform) children's colour.
        let old = color.clone();
        color = shifted;
        for v in 0..n {
            if color[v] == eliminate {
                let parent_color = if parent[v] == usize::MAX {
                    u64::MAX
                } else {
                    color[parent[v]]
                };
                // Every child now carries v's old colour.
                color[v] = cv_eliminate_pick(parent_color, old[v]);
            }
        }
        iterations += 1;
    }

    debug_assert!(verify_proper(parent, &color));
    ForestColoring {
        color: color.into_iter().map(|c| c as u8).collect(),
        iterations,
    }
}

fn verify_proper(parent: &[usize], color: &[u64]) -> bool {
    parent
        .iter()
        .enumerate()
        .all(|(v, &p)| p == usize::MAX || color[v] != color[p])
}

/// Checks that a colouring is a proper colouring of the rooted forest.
pub fn is_proper_coloring(parent: &[usize], color: &[u8]) -> bool {
    parent
        .iter()
        .enumerate()
        .all(|(v, &p)| p == usize::MAX || color[v] != color[p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::properties::splitmix64;

    fn path_parents(n: usize) -> (Vec<usize>, Vec<u64>) {
        let parent: Vec<usize> = (0..n)
            .map(|v| if v == 0 { usize::MAX } else { v - 1 })
            .collect();
        let id: Vec<u64> = (0..n as u64).map(splitmix64).collect();
        (parent, id)
    }

    #[test]
    fn colors_a_long_path_properly_with_three_colors() {
        let (parent, id) = path_parents(1000);
        let res = color_rooted_forest(&parent, &id);
        assert!(is_proper_coloring(&parent, &res.color));
        assert!(res.color.iter().all(|&c| c < 3));
        // log* of anything practical plus the constant phase is tiny.
        assert!(res.iterations <= 20, "iterations {}", res.iterations);
    }

    #[test]
    fn colors_a_random_forest() {
        // Random parent pointers respecting index order form a forest.
        let n = 500;
        let parent: Vec<usize> = (0..n)
            .map(|v| {
                if v == 0 || v % 17 == 0 {
                    usize::MAX
                } else {
                    (splitmix64(v as u64) % v as u64) as usize
                }
            })
            .collect();
        let id: Vec<u64> = (0..n as u64).map(|v| splitmix64(v ^ 0xabc)).collect();
        let res = color_rooted_forest(&parent, &id);
        assert!(is_proper_coloring(&parent, &res.color));
        assert!(res.color.iter().all(|&c| c < 3));
    }

    #[test]
    fn star_forest_colors_in_two_colors_worth() {
        let n = 50;
        let parent: Vec<usize> = (0..n)
            .map(|v| if v == 0 { usize::MAX } else { 0 })
            .collect();
        let id: Vec<u64> = (0..n as u64).map(|v| v * 7 + 3).collect();
        let res = color_rooted_forest(&parent, &id);
        assert!(is_proper_coloring(&parent, &res.color));
    }

    #[test]
    fn schedule_length_covers_u64_identifiers() {
        // 2^64 → 128 → 14 → 8 → 6: four reduction iterations.
        assert_eq!(cv_schedule_len(), 4);
    }

    #[test]
    fn scheduled_variant_matches_properness_and_palette() {
        let (parent, id) = path_parents(300);
        let res = color_rooted_forest_scheduled(&parent, &id, cv_schedule_len());
        assert!(is_proper_coloring(&parent, &res.color));
        assert!(res.color.iter().all(|&c| c < 3));
        // Schedule of 4 reductions + 3 × (shift + recolour).
        assert_eq!(res.iterations, cv_schedule_len() + 6);
    }

    #[test]
    fn scheduled_variant_handles_star_and_singletons() {
        let parent = vec![usize::MAX, 0, 0, 0, usize::MAX];
        let id = vec![11, 22, 33, 44, 55];
        let res = color_rooted_forest_scheduled(&parent, &id, cv_schedule_len());
        assert!(is_proper_coloring(&parent, &res.color));
        assert!(res.color.iter().all(|&c| c < 3));
    }

    #[test]
    fn empty_forest() {
        let res = color_rooted_forest(&[], &[]);
        assert_eq!(res.iterations, 0);
        assert!(res.color.is_empty());
    }

    #[test]
    fn singleton_nodes_are_fine() {
        let parent = vec![usize::MAX; 5];
        let id = vec![10, 20, 30, 40, 50];
        let res = color_rooted_forest(&parent, &id);
        assert!(res.color.iter().all(|&c| c < 3));
    }
}
