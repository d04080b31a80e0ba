//! The expander split `G⋄` of a graph (paper §2, "Expander split").
//!
//! For every vertex `v` of degree `d`, the split contains a gadget `X_v` on `d`
//! *ports*, wired as a constant-degree expander; for every edge `{u, v}` of `G`, one
//! port of `X_u` is connected to one port of `X_v` (an *external* edge). The
//! conductance of `G⋄` (as sparsity) is within a constant factor of the conductance of
//! `G`, and — crucially for the CONGEST simulation — a round of communication on `G⋄`
//! can be simulated by one round on `G`: gadget-internal edges live inside a single
//! device and are free, and external edges correspond one-to-one to edges of `G`.

use mfd_graph::Graph;

/// The expander split of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpanderSplit {
    /// The split graph `G⋄` on `2m` port vertices.
    pub split: Graph,
    /// `owner[x]` is the original vertex whose gadget contains port `x`.
    pub owner: Vec<usize>,
    /// `port_offset[v]..port_offset[v] + deg(v)` are the ports of vertex `v`.
    pub port_offset: Vec<usize>,
    /// For every original edge `(u, v)` with `u < v`, the pair of ports joined by the
    /// corresponding external edge.
    pub external: Vec<((usize, usize), (usize, usize))>,
    num_ports: usize,
}

impl ExpanderSplit {
    /// Builds the expander split of `g`.
    ///
    /// Gadgets: for degree ≤ 8 the gadget is a clique; for larger degrees it is a
    /// de Bruijn-style constant-degree graph (cycle plus doubling chords), a standard
    /// constant-conductance family.
    pub fn build(g: &Graph) -> Self {
        let n = g.n();
        let mut port_offset = vec![0usize; n + 1];
        for v in 0..n {
            port_offset[v + 1] = port_offset[v] + g.degree(v).max(1);
        }
        let num_ports = port_offset[n];
        let mut edges = Vec::new();
        let mut owner = vec![0usize; num_ports];
        for (v, &start) in port_offset.iter().enumerate().take(n) {
            let d = g.degree(v).max(1);
            for p in 0..d {
                owner[start + p] = v;
            }
            Self::wire_gadget(&mut edges, start, d);
        }
        // External edges: vertex v's i-th incident edge uses its i-th port.
        let mut next_port: Vec<usize> = (0..n).map(|v| port_offset[v]).collect();
        let mut external = Vec::with_capacity(g.m());
        for (u, v) in g.edges() {
            let pu = next_port[u];
            next_port[u] += 1;
            let pv = next_port[v];
            next_port[v] += 1;
            edges.push((pu, pv));
            external.push(((u, v), (pu, pv)));
        }
        ExpanderSplit {
            split: Graph::from_edges(num_ports, edges),
            owner,
            port_offset: port_offset[..n].to_vec(),
            external,
            num_ports,
        }
    }

    /// Appends the edges of the gadget on ports `start..start + d`.
    fn wire_gadget(edges: &mut Vec<(usize, usize)>, start: usize, d: usize) {
        if d <= 1 {
            return;
        }
        if d <= 8 {
            for i in 0..d {
                edges.extend(((i + 1)..d).map(|j| (start + i, start + j)));
            }
            return;
        }
        for i in 0..d {
            for j in [(i + 1) % d, (2 * i) % d, (2 * i + 1) % d] {
                edges.push((start + i, start + j));
            }
        }
    }

    /// Number of ports (vertices of `G⋄`), equal to `Σ_v max(deg(v), 1)`.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Ports belonging to original vertex `v`.
    pub(crate) fn ports(&self, v: usize, g: &Graph) -> std::ops::Range<usize> {
        let start = self.port_offset[v];
        start..start + g.degree(v).max(1)
    }

    /// Returns `true` if the split edge `{x, y}` is internal to a gadget (and
    /// therefore free to use in the CONGEST simulation).
    pub(crate) fn is_internal(&self, x: usize, y: usize) -> bool {
        self.owner[x] == self.owner[y]
    }

    /// Maximum degree of the split graph (a small constant by construction).
    pub fn max_degree(&self) -> usize {
        self.split.max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_graph::properties::spectral_sweep_cut;

    #[test]
    fn split_sizes_are_right() {
        let g = generators::cycle(6);
        let s = ExpanderSplit::build(&g);
        assert_eq!(s.num_ports(), 12);
        // 6 gadget cliques of size 2 (1 edge each) + 6 external edges.
        assert_eq!(s.split.m(), 12);
        assert_eq!(s.external.len(), 6);
    }

    #[test]
    fn gadgets_have_constant_degree() {
        let g = generators::wheel(40);
        let s = ExpanderSplit::build(&g);
        assert!(s.max_degree() <= 8 + 2, "split degree {}", s.max_degree());
        // Every external edge joins ports of different owners.
        for &((u, v), (pu, pv)) in &s.external {
            assert_eq!(s.owner[pu], u);
            assert_eq!(s.owner[pv], v);
            assert!(!s.is_internal(pu, pv));
        }
    }

    #[test]
    fn each_port_hosts_exactly_one_external_edge() {
        let g = generators::triangulated_grid(5, 5);
        let s = ExpanderSplit::build(&g);
        let mut used = vec![0usize; s.num_ports()];
        for &(_, (pu, pv)) in &s.external {
            used[pu] += 1;
            used[pv] += 1;
        }
        for v in g.vertices() {
            for p in s.ports(v, &g) {
                assert!(used[p] <= 1);
            }
            let total: usize = s.ports(v, &g).map(|p| used[p]).sum();
            assert_eq!(total, g.degree(v));
        }
    }

    #[test]
    fn split_of_an_expander_is_well_connected() {
        let g = generators::hypercube(5);
        let s = ExpanderSplit::build(&g);
        assert!(s.split.is_connected());
        let cut = spectral_sweep_cut(&s.split, 150).unwrap();
        // The hypercube has conductance 1/5; the split should retain a constant
        // fraction of it.
        assert!(cut.conductance > 0.01, "conductance {}", cut.conductance);
    }

    #[test]
    fn isolated_vertices_get_a_single_port() {
        let g = Graph::new(3);
        let s = ExpanderSplit::build(&g);
        assert_eq!(s.num_ports(), 3);
        assert_eq!(s.split.m(), 0);
    }
}
