//! Reference clique counts, computed during setup from the graph's sorted
//! adjacency lists alone: no degeneracy order, index, kernel or shard plan of
//! the library is involved, so a kernel bug cannot hide in its own reference.

use distributed_clique_listing::graphcore::Graph;
use std::collections::HashMap;

/// Triangle and `K_4` counts of one graph, optionally tallied per vertex and
/// per edge.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Number of triangles.
    pub k3: u64,
    /// Number of 4-cliques.
    pub k4: u64,
    /// Per vertex, the `[K_3, K_4]` cliques containing it (empty unless
    /// tallied).
    pub per_vertex: Vec<[u32; 2]>,
    /// Per edge `(u, v)` with `u < v`, the `[K_3, K_4]` cliques containing it;
    /// edges in no triangle are absent (empty unless tallied).
    pub per_edge: HashMap<(u32, u32), [u32; 2]>,
}

impl Census {
    /// The count of `p`-cliques, for `p` in `{3, 4}`.
    pub fn count(&self, p: usize) -> u64 {
        if p == 3 {
            self.k3
        } else {
            self.k4
        }
    }

    /// Cliques of size `p` containing `v`.
    pub fn vertex(&self, p: usize, v: u32) -> u64 {
        u64::from(self.per_vertex[v as usize][p - 3])
    }

    /// Cliques of size `p` containing the edge `{u, v}`.
    pub fn edge(&self, p: usize, u: u32, v: u32) -> u64 {
        self.per_edge
            .get(&(u.min(v), u.max(v)))
            .map_or(0, |t| u64::from(t[p - 3]))
    }
}

/// The neighbours of `v` with a larger id.
fn forward(graph: &Graph, v: u32) -> &[u32] {
    let nbrs = graph.neighbors(v);
    &nbrs[nbrs.partition_point(|&w| w <= v)..]
}

/// Whether `{u, v}` is an edge, by binary search in `u`'s sorted row.
pub fn adjacent(graph: &Graph, u: u32, v: u32) -> bool {
    graph.neighbors(u).binary_search(&v).is_ok()
}

/// Counts every triangle and `K_4` as an increasing vertex sequence
/// `u < v < w < x`, extending along forward neighbour lists. With `tally`,
/// also counts them per vertex and per edge.
pub fn census(graph: &Graph, tally: bool) -> Census {
    let n = graph.num_vertices();
    let mut c = Census::default();
    if tally {
        c.per_vertex = vec![[0; 2]; n];
        // Sized for every edge up front: grown on demand, the table would
        // double at a seed-dependent point and move `peak_rss_mb` with it.
        c.per_edge = HashMap::with_capacity(graph.num_edges());
    }
    let mut common: Vec<u32> = Vec::new();
    for u in 0..n as u32 {
        let fu = forward(graph, u);
        for &v in fu {
            let fv = forward(graph, v);
            common.clear();
            let (mut i, mut j) = (0, 0);
            while i < fu.len() && j < fv.len() {
                match fu[i].cmp(&fv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common.push(fu[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            c.k3 += common.len() as u64;
            for (a, &w) in common.iter().enumerate() {
                if tally {
                    tally_clique(&mut c, &[u, v, w], 0);
                }
                for &x in &common[a + 1..] {
                    if adjacent(graph, w, x) {
                        c.k4 += 1;
                        if tally {
                            tally_clique(&mut c, &[u, v, w, x], 1);
                        }
                    }
                }
            }
        }
    }
    c
}

fn tally_clique(c: &mut Census, clique: &[u32], slot: usize) {
    for (i, &a) in clique.iter().enumerate() {
        c.per_vertex[a as usize][slot] += 1;
        for &b in &clique[i + 1..] {
            c.per_edge.entry((a, b)).or_default()[slot] += 1;
        }
    }
}

/// Whether `clique` is strictly increasing and pairwise adjacent in `graph`.
pub fn is_canonical_clique(graph: &Graph, clique: &[u32]) -> bool {
    clique.windows(2).all(|w| w[0] < w[1])
        && clique.iter().all(|&v| (v as usize) < graph.num_vertices())
        && clique
            .iter()
            .enumerate()
            .all(|(i, &a)| clique[i + 1..].iter().all(|&b| adjacent(graph, a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_clique_listing::graphcore::gen;

    #[test]
    fn census_matches_closed_forms_on_complete_graphs() {
        let c = census(&gen::complete_graph(7), true);
        assert_eq!((c.k3, c.k4), (35, 35));
        // Each vertex lies in C(6,2) triangles and C(6,3) 4-cliques.
        assert_eq!(c.vertex(3, 0), 15);
        assert_eq!(c.vertex(4, 6), 20);
        // Each edge lies in 5 triangles and C(5,2) 4-cliques.
        assert_eq!(c.edge(4, 2, 5), 10);
        assert_eq!(c.edge(3, 6, 1), 5);
    }

    #[test]
    fn clique_validation_rejects_non_cliques() {
        let g = gen::path_graph(4);
        assert!(is_canonical_clique(&g, &[1, 2]));
        assert!(!is_canonical_clique(&g, &[0, 1, 2]));
        assert!(!is_canonical_clique(&g, &[2, 1]));
    }
}
