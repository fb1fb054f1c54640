//! Clusters: dense, well-mixing components of the decomposition.

use graphcore::{spectral, EdgeSet, Graph};
use serde::{Deserialize, Serialize};

/// One `n^δ`-cluster of a δ-expander decomposition (Definition 2.1 of the
/// paper): a maximal connected component of the `E_m` edges in which every
/// node has degree `Ω(n^δ)` and whose mixing time is polylogarithmic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Dense identifier of the cluster within its decomposition.
    pub id: usize,
    /// The vertices of the cluster, sorted by identifier.
    pub vertices: Vec<u32>,
}

impl Cluster {
    /// Creates a cluster from a vertex list (sorted and deduplicated).
    pub fn new(id: usize, vertices: Vec<u32>) -> Self {
        let mut vertices = vertices;
        vertices.sort_unstable();
        vertices.dedup();
        Cluster { id, vertices }
    }

    /// Number of nodes in the cluster (the paper's `k`).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether `v` belongs to the cluster.
    pub fn contains(&self, v: u32) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// The cluster's edges within the given `E_m` edge set.
    pub fn edges_within(&self, em: &EdgeSet) -> EdgeSet {
        em.iter()
            .filter(|e| self.contains(e.u()) && self.contains(e.v()))
            .collect()
    }

    /// Minimum `E_m`-degree over the cluster's nodes.
    pub fn min_internal_degree(&self, em_graph: &Graph) -> usize {
        self.vertices
            .iter()
            .map(|&v| {
                em_graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| self.contains(w))
                    .count()
            })
            .min()
            .unwrap_or(0)
    }

    /// Number of `E_m` edges inside the cluster.
    pub fn internal_edge_count(&self, em_graph: &Graph) -> usize {
        self.vertices
            .iter()
            .map(|&v| {
                em_graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| self.contains(w))
                    .count()
            })
            .sum::<usize>()
            / 2
    }

    /// Estimated mixing time of the lazy random walk restricted to the
    /// cluster's internal edges: `f64::INFINITY` when the walk does not mix,
    /// which includes a cluster vertex out of range for `em_graph`.
    pub fn mixing_time(&self, em_graph: &Graph) -> f64 {
        spectral::mixing_time_estimate(em_graph, &self.vertices)
    }

    /// Per-node bandwidth the cluster can sustain per round: its minimum
    /// internal degree (each incident cluster edge carries one word per round).
    pub fn bandwidth(&self, em_graph: &Graph) -> u64 {
        self.min_internal_degree(em_graph) as u64
    }

    /// The neighbours of the cluster: vertices outside the cluster with at
    /// least one edge (in `graph`) to a cluster vertex.
    pub fn outside_neighbors(&self, graph: &Graph) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .vertices
            .iter()
            .flat_map(|&v| graph.neighbors(v).iter().copied())
            .filter(|&w| !self.contains(w))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    #[test]
    fn membership_and_size() {
        let c = Cluster::new(0, vec![5, 3, 3, 9]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.contains(3) && c.contains(9));
        assert!(!c.contains(4));
        assert_eq!(c.vertices, vec![3, 5, 9]);
    }

    #[test]
    fn internal_degree_and_edges() {
        let g = gen::complete_graph(6);
        let c = Cluster::new(1, (0..4).collect());
        assert_eq!(c.min_internal_degree(&g), 3);
        assert_eq!(c.internal_edge_count(&g), 6);
        assert_eq!(c.outside_neighbors(&g), vec![4, 5]);
        assert!(c.mixing_time(&g) < 10.0);
        assert_eq!(c.bandwidth(&g), 3);
    }

    #[test]
    fn out_of_range_vertices_do_not_mix() {
        let c = Cluster::new(0, vec![0, 1, 9]);
        assert!(c.mixing_time(&gen::complete_graph(5)).is_infinite());
    }

    #[test]
    fn edges_within_filters() {
        let g = gen::complete_graph(5);
        let em = g.edge_set();
        let c = Cluster::new(0, vec![0, 1, 2]);
        assert_eq!(c.edges_within(&em).len(), 3);
    }

    #[test]
    fn empty_cluster() {
        let g = gen::path_graph(3);
        let c = Cluster::new(0, vec![]);
        assert!(c.is_empty());
        assert_eq!(c.min_internal_degree(&g), 0);
        assert_eq!(c.internal_edge_count(&g), 0);
    }
}
