//! Degeneracy orderings, bounded out-degree orientations and arboricity bounds.
//!
//! The listing algorithms of the paper are driven by an *orientation* of the
//! edges with bounded out-degree: a graph with arboricity `A` always admits an
//! orientation with out-degree `O(A)`, and the algorithms repeatedly halve the
//! arboricity of the "remaining" edge set while maintaining such an
//! orientation (Theorem 2.8). This module provides the sequential machinery:
//! degeneracy (core) orderings, the induced acyclic orientation, and upper and
//! lower bounds on the arboricity.

use crate::edge::EdgeSet;
use crate::graph::{push_difference, Graph};
use serde::{Deserialize, Serialize};

/// A degeneracy (smallest-last / core) ordering of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// Vertices in peeling order (first peeled first).
    pub order: Vec<u32>,
    /// Position of each vertex in `order`.
    pub position: Vec<usize>,
    /// The degeneracy: the maximum, over peeled vertices, of their remaining
    /// degree at peel time.
    pub degeneracy: usize,
}

/// Computes a degeneracy ordering in `O(n + m)` time with bucket queues.
///
/// The peel repeatedly removes a vertex of smallest remaining degree. Each
/// bucket is a stack seeded in id order, so among vertices of equal degree
/// the one whose degree reached that value last goes first; `DESIGN.md` §13
/// treats this tie-breaking as a contract, because every listing order
/// follows the ordering. This is the loop behind
/// [`OrientedDag::from_degeneracy`] without the DAG rows.
pub fn degeneracy_ordering(graph: &Graph) -> DegeneracyOrdering {
    peel::<false>(graph).0
}

/// The degeneracy ordering of `graph` and its [`OrientedDag`], both from one
/// peel: the neighbours still unpeeled when `v` is peeled are exactly its
/// later neighbours, already sorted by id, so the peel writes `v`'s row as
/// it goes. Equal to [`degeneracy_ordering`] followed by
/// [`OrientedDag::from_ordering`].
pub(crate) fn degeneracy_dag(graph: &Graph) -> (DegeneracyOrdering, OrientedDag) {
    peel::<true>(graph)
}

/// Marks a peeled vertex in the peel's degree array.
const PEELED: u32 = u32::MAX;

/// The bucket-queue peel. With `ROWS` it writes each peeled vertex's DAG
/// row; without, the returned DAG is empty and nothing is allocated for it.
///
/// Buckets hold stale entries: a vertex whose degree drops is pushed again
/// one bucket lower and its old entry is skipped when popped. Every unpeeled
/// vertex `v` has exactly one live entry, in bucket `degree[v]`, and
/// `cursor` never exceeds the smallest remaining degree (it drops with every
/// decrement below it), so scanning up from `cursor` finds the next vertex.
fn peel<const ROWS: bool>(graph: &Graph) -> (DegeneracyOrdering, OrientedDag) {
    let n = graph.num_vertices();
    let mut degree: Vec<u32> = (0..n as u32).map(|v| graph.degree(v) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n as u32 {
        buckets[degree[v as usize] as usize].push(v);
    }
    let mut order = Vec::with_capacity(n);
    let mut position = vec![0usize; n];
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    let mut dag = if ROWS {
        OrientedDag::with_capacity(n, graph.num_edges())
    } else {
        OrientedDag::with_capacity(0, 0)
    };
    for _ in 0..n {
        let v = loop {
            match buckets[cursor].pop() {
                Some(v) if degree[v as usize] as usize == cursor => break v,
                Some(_) => {}
                None => cursor += 1,
            }
        };
        degree[v as usize] = PEELED;
        degeneracy = degeneracy.max(cursor);
        position[v as usize] = order.len();
        order.push(v);
        let start = dag.targets.len() as u32;
        for &w in graph.neighbors(v) {
            let d = degree[w as usize];
            if d != PEELED {
                degree[w as usize] = d - 1;
                buckets[d as usize - 1].push(w);
                cursor = cursor.min(d as usize - 1);
                if ROWS {
                    dag.targets.push(w);
                }
            }
        }
        if ROWS {
            dag.close_row(v, start);
        }
    }
    let ordering = DegeneracyOrdering {
        order,
        position,
        degeneracy,
    };
    (ordering, dag)
}

/// The acyclic "later-neighbour" DAG of a degeneracy ordering.
///
/// For every vertex `v`, the structure stores the neighbours that appear
/// *after* `v` in the peeling order, sorted by vertex id (the same order the
/// underlying CSR rows use). The rows are laid out in peeling order, the
/// order the ordered search visits its roots, and each vertex records the
/// span of its row. Built in `O(n + m)`, by the peel itself
/// ([`OrientedDag::from_degeneracy`]) or from any ordering
/// ([`OrientedDag::from_ordering`]), it is the substrate of the ordered
/// clique enumeration in [`crate::cliques`]: the out-degree of every vertex
/// is at most the degeneracy, so per-depth candidate buffers can be sized
/// once up front, and candidate sets stay sorted so intersections are plain
/// merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrientedDag {
    /// `spans[v]` is the `[start, end)` range of `v`'s row in `targets`.
    spans: Vec<[u32; 2]>,
    /// Concatenated out-neighbour rows in peeling order, each sorted by
    /// vertex id.
    targets: Vec<u32>,
}

impl OrientedDag {
    /// A DAG over `n` vertices with empty rows and room for `m` arcs.
    fn with_capacity(n: usize, m: usize) -> Self {
        OrientedDag {
            spans: vec![[0, 0]; n],
            targets: Vec::with_capacity(m),
        }
    }

    /// Ends `v`'s row: the arcs appended since `start`.
    fn close_row(&mut self, v: u32, start: u32) {
        self.spans[v as usize] = [start, self.targets.len() as u32];
    }

    /// Builds the DAG of an arbitrary `ordering` over `graph` in one linear
    /// pass over the ordering.
    ///
    /// # Panics
    ///
    /// Panics if `ordering` does not cover the vertices of `graph`.
    pub fn from_ordering(graph: &Graph, ordering: &DegeneracyOrdering) -> Self {
        let n = graph.num_vertices();
        assert_eq!(ordering.order.len(), n, "ordering must cover every vertex");
        let position = &ordering.position;
        let mut dag = OrientedDag::with_capacity(n, graph.num_edges());
        for (i, &v) in ordering.order.iter().enumerate() {
            let start = dag.targets.len() as u32;
            dag.targets.extend(
                graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| position[w as usize] > i),
            );
            dag.close_row(v, start);
        }
        dag
    }

    /// Computes a degeneracy ordering of `graph` and builds its DAG, in one
    /// peel.
    pub fn from_degeneracy(graph: &Graph) -> Self {
        degeneracy_dag(graph).1
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.spans.len()
    }

    /// Number of directed edges (equals the number of undirected edges of the
    /// source graph).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The out-neighbours of `v` (its later neighbours), sorted by vertex id.
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        let [start, end] = self.spans[v as usize];
        &self.targets[start as usize..end as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        let [start, end] = self.spans[v as usize];
        (end - start) as usize
    }

    /// Maximum out-degree over all vertices (at most the degeneracy when the
    /// DAG comes from a degeneracy ordering).
    pub fn max_out_degree(&self) -> usize {
        self.spans
            .iter()
            .map(|&[start, end]| (end - start) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// An orientation of (a subset of) a graph's edges: each edge is directed away
/// from exactly one endpoint, and the quantity of interest is the maximum
/// out-degree.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Orientation {
    out: Vec<Vec<u32>>,
}

impl Orientation {
    /// Creates an empty orientation over `n` vertices.
    pub fn new(n: usize) -> Self {
        Orientation {
            out: vec![Vec::new(); n],
        }
    }

    /// Orients every edge of `graph` from the endpoint that appears *earlier*
    /// in a degeneracy ordering towards the later one. The resulting maximum
    /// out-degree equals the degeneracy, which is at most `2A - 1` for a graph
    /// of arboricity `A`.
    pub fn from_degeneracy(graph: &Graph) -> Self {
        let ordering = degeneracy_ordering(graph);
        Orientation::from_positions(graph, &ordering.position)
    }

    /// Orients every edge from the endpoint with the smaller `position` value
    /// to the one with the larger (ties broken by vertex id).
    pub fn from_positions(graph: &Graph, position: &[usize]) -> Self {
        let mut out = vec![Vec::new(); graph.num_vertices()];
        for (u, v) in graph.edges() {
            let u_first = (position[u as usize], u) < (position[v as usize], v);
            if u_first {
                out[u as usize].push(v);
            } else {
                out[v as usize].push(u);
            }
        }
        for list in &mut out {
            list.sort_unstable();
        }
        Orientation { out }
    }

    /// Builds an orientation directly from per-vertex out-neighbour lists.
    ///
    /// Used when an algorithm carries an orientation across iterations (the
    /// out-lists of surviving edges keep their direction).
    pub fn from_out_lists(out: Vec<Vec<u32>>) -> Self {
        let mut out = out;
        for list in &mut out {
            list.sort_unstable();
            list.dedup();
        }
        Orientation { out }
    }

    /// Number of vertices covered by the orientation.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Out-neighbours of `v` (edges directed away from `v`).
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        &self.out[v as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.out[v as usize].len()
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of oriented edges.
    pub fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Whether edge `u -> v` is oriented away from `u`.
    pub fn is_oriented(&self, u: u32, v: u32) -> bool {
        self.out[u as usize].binary_search(&v).is_ok()
    }

    /// The vertex an undirected edge `{u, v}` is oriented away from, if the
    /// edge is covered by this orientation.
    pub fn source_of(&self, u: u32, v: u32) -> Option<u32> {
        if self.is_oriented(u, v) {
            Some(u)
        } else if self.is_oriented(v, u) {
            Some(v)
        } else {
            None
        }
    }

    /// Restricts the orientation to the edges in `keep`, preserving directions.
    pub fn restrict_to(&self, keep: &EdgeSet) -> Orientation {
        let out = self
            .out
            .iter()
            .enumerate()
            .map(|(u, nbrs)| {
                nbrs.iter()
                    .copied()
                    .filter(|&v| keep.contains_pair(u as u32, v))
                    .collect()
            })
            .collect();
        Orientation { out }
    }

    /// Drops the edges of `removed`, a graph on at least as many vertices,
    /// preserving the other directions: one merge per out-list.
    pub fn without_edges_of(&self, removed: &Graph) -> Orientation {
        let mut out = vec![Vec::new(); self.out.len()];
        for (u, (row, kept)) in self.out.iter().zip(&mut out).enumerate() {
            push_difference(row, removed.neighbors(u as u32), kept);
        }
        Orientation { out }
    }

    /// Iterates over all oriented edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().map(move |&v| (u as u32, v)))
    }

    /// Checks that the orientation covers exactly the edges of `graph`
    /// (each edge once, in one direction). Used by tests and debug assertions.
    pub fn covers_exactly(&self, graph: &Graph) -> bool {
        if self.num_edges() != graph.num_edges() {
            return false;
        }
        self.edges().all(|(u, v)| graph.has_edge(u, v))
            && self.edges().all(|(u, v)| !self.is_oriented(v, u) || u == v)
    }
}

/// Upper bound on the arboricity: the degeneracy `k` satisfies
/// `arboricity ≤ k ≤ 2·arboricity − 1`.
pub fn arboricity_upper_bound(graph: &Graph) -> usize {
    degeneracy_ordering(graph).degeneracy
}

/// Lower bound on the arboricity via Nash-Williams on the densest suffix of a
/// degeneracy ordering: `arboricity ≥ ⌈m_S / (|S| − 1)⌉` for every vertex
/// subset `S` with `|S| ≥ 2`; we evaluate the bound on every suffix of the
/// peeling order, which contains the densest cores.
pub fn arboricity_lower_bound(graph: &Graph) -> usize {
    let n = graph.num_vertices();
    if n < 2 || graph.num_edges() == 0 {
        return 0;
    }
    let ordering = degeneracy_ordering(graph);
    // edges_in_suffix[i] = number of edges with both endpoints at positions >= i.
    let mut best = 1usize;
    let mut edges_in_suffix = 0usize;
    // Process positions from last to first, adding each vertex's edges to
    // later vertices.
    for i in (0..n).rev() {
        let v = ordering.order[i];
        let later = graph
            .neighbors(v)
            .iter()
            .filter(|&&w| ordering.position[w as usize] > i)
            .count();
        edges_in_suffix += later;
        let size = n - i;
        if size >= 2 && edges_in_suffix > 0 {
            let bound = edges_in_suffix.div_ceil(size - 1);
            best = best.max(bound);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy_ordering(&gen::complete_graph(5)).degeneracy, 4);
        assert_eq!(degeneracy_ordering(&gen::cycle_graph(10)).degeneracy, 2);
        assert_eq!(degeneracy_ordering(&gen::path_graph(10)).degeneracy, 1);
        assert_eq!(degeneracy_ordering(&gen::star_graph(10)).degeneracy, 1);
        assert_eq!(degeneracy_ordering(&Graph::new(5)).degeneracy, 0);
        assert_eq!(degeneracy_ordering(&Graph::new(0)).order.len(), 0);
    }

    #[test]
    fn ordering_is_a_permutation() {
        let g = gen::erdos_renyi(80, 0.1, 3);
        let ord = degeneracy_ordering(&g);
        let mut sorted = ord.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80u32).collect::<Vec<_>>());
        for (pos, &v) in ord.order.iter().enumerate() {
            assert_eq!(ord.position[v as usize], pos);
        }
    }

    #[test]
    fn orientation_from_degeneracy_covers_graph() {
        let g = gen::erdos_renyi(60, 0.15, 5);
        let o = Orientation::from_degeneracy(&g);
        assert!(o.covers_exactly(&g));
        assert_eq!(o.num_edges(), g.num_edges());
        // Out-degree bounded by degeneracy.
        let k = degeneracy_ordering(&g).degeneracy;
        assert!(o.max_out_degree() <= k, "{} > {}", o.max_out_degree(), k);
    }

    #[test]
    fn orientation_queries() {
        let g = gen::path_graph(4); // 0-1-2-3
        let o = Orientation::from_positions(&g, &[0, 1, 2, 3]);
        assert!(o.is_oriented(0, 1));
        assert!(!o.is_oriented(1, 0));
        assert_eq!(o.source_of(1, 2), Some(1));
        assert_eq!(o.source_of(0, 3), None);
        assert_eq!(o.out_degree(3), 0);
        assert_eq!(o.edges().count(), 3);
        assert_eq!(o.num_vertices(), 4);
    }

    #[test]
    fn restrict_preserves_directions() {
        let g = gen::complete_graph(4);
        let o = Orientation::from_degeneracy(&g);
        let mut keep = EdgeSet::new();
        keep.insert(crate::Edge::new(0, 1));
        keep.insert(crate::Edge::new(2, 3));
        let r = o.restrict_to(&keep);
        assert_eq!(r.num_edges(), 2);
        for (u, v) in r.edges() {
            assert!(o.is_oriented(u, v));
        }
    }

    #[test]
    fn removing_edges_by_merge_matches_the_set_filters() {
        // Each edge is removed with probability 1/2 (an independent
        // G(n, 1/2) coin); a removed pair that is no edge changes nothing.
        for (g, seed) in [
            (gen::erdos_renyi(90, 0.2, 3), 4),
            (gen::complete_graph(9), 5),
        ] {
            let n = g.num_vertices();
            let coin = gen::erdos_renyi(n, 0.5, seed);
            let removed: Vec<(u32, u32)> =
                g.edges().filter(|&(u, v)| coin.has_edge(u, v)).collect();
            let removed_graph = Graph::from_edges(n, &removed).unwrap();
            let removed_set: EdgeSet = removed.iter().map(|&e| crate::Edge::from(e)).collect();
            let rest = g.without_edges_of(&removed_graph);
            assert_eq!(rest, g.without_edges(&removed_set));
            let o = Orientation::from_degeneracy(&g);
            let kept = o.without_edges_of(&removed_graph);
            assert_eq!(kept, o.restrict_to(&rest.edge_set()));
            assert!(kept.covers_exactly(&rest));
            assert_eq!(g.without_edges_of(&coin), g.without_edges(&coin.edge_set()));
        }
    }

    #[test]
    fn oriented_dag_covers_every_edge_once_with_bounded_out_degree() {
        let g = gen::erdos_renyi(70, 0.2, 13);
        let ordering = degeneracy_ordering(&g);
        let dag = OrientedDag::from_ordering(&g, &ordering);
        assert_eq!(dag.num_vertices(), 70);
        assert_eq!(dag.num_edges(), g.num_edges());
        assert!(dag.max_out_degree() <= ordering.degeneracy);
        for v in 0..70u32 {
            let out = dag.out_neighbors(v);
            assert_eq!(out.len(), dag.out_degree(v));
            assert!(out.windows(2).all(|w| w[0] < w[1]), "row not sorted by id");
            for &w in out {
                assert!(g.has_edge(v, w));
                assert!(ordering.position[w as usize] > ordering.position[v as usize]);
            }
        }
        assert_eq!(OrientedDag::from_degeneracy(&g), dag);
    }

    /// The stale-entry bucket loop `degeneracy_ordering` ran before the peel
    /// learned to write DAG rows, kept as the tie-breaking reference: a
    /// different valid ordering would change every listing order.
    fn reference_ordering(graph: &Graph) -> DegeneracyOrdering {
        let n = graph.num_vertices();
        let mut degree: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
        let max_deg = degree.iter().copied().max().unwrap_or(0);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
        for v in 0..n as u32 {
            buckets[degree[v as usize]].push(v);
        }
        let mut removed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut position = vec![0usize; n];
        let mut degeneracy = 0usize;
        let mut cursor = 0usize;
        for _ in 0..n {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let v = loop {
                if cursor >= buckets.len() {
                    cursor = 0;
                    while buckets[cursor].is_empty() {
                        cursor += 1;
                    }
                }
                match buckets[cursor].pop() {
                    Some(v) if !removed[v as usize] && degree[v as usize] == cursor => break v,
                    Some(_) => continue,
                    None => {
                        cursor += 1;
                        continue;
                    }
                }
            };
            removed[v as usize] = true;
            degeneracy = degeneracy.max(cursor);
            position[v as usize] = order.len();
            order.push(v);
            for &w in graph.neighbors(v) {
                if !removed[w as usize] {
                    let d = degree[w as usize];
                    degree[w as usize] = d - 1;
                    buckets[d - 1].push(w);
                    if d - 1 < cursor {
                        cursor = d - 1;
                    }
                }
            }
        }
        DegeneracyOrdering {
            order,
            position,
            degeneracy,
        }
    }

    #[test]
    fn one_peel_matches_the_reference_ordering_and_dag() {
        let graphs = [
            ("empty", Graph::new(0)),
            ("isolated", Graph::new(7)),
            ("path", gen::path_graph(12)),
            ("star", gen::star_graph(15)),
            ("complete", gen::complete_graph(9)),
            ("sparse er", gen::erdos_renyi(300, 0.02, 5)),
            ("dense er", gen::erdos_renyi(120, 0.6, 8)),
            ("rmat", gen::rmat(9, 8, (0.57, 0.19, 0.19, 0.05), 2)),
            ("multipartite", gen::multipartite(220, 3, 0.8, 1)),
        ];
        for (name, g) in &graphs {
            let want = reference_ordering(g);
            assert_eq!(degeneracy_ordering(g), want, "{name}: ordering");
            let (ordering, dag) = degeneracy_dag(g);
            assert_eq!(ordering, want, "{name}: one-peel ordering");
            assert_eq!(dag, OrientedDag::from_ordering(g, &want), "{name}: dag");
            assert_eq!(OrientedDag::from_degeneracy(g), dag, "{name}: dag");
            assert_eq!(dag.num_vertices(), g.num_vertices(), "{name}");
            assert_eq!(dag.num_edges(), g.num_edges(), "{name}");
            assert_eq!(dag.max_out_degree(), want.degeneracy, "{name}");
            for v in 0..g.num_vertices() as u32 {
                let later: Vec<u32> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| want.position[w as usize] > want.position[v as usize])
                    .collect();
                assert_eq!(dag.out_neighbors(v), later, "{name}: row of {v}");
            }
        }
    }

    #[test]
    fn from_out_lists_dedups() {
        let o = Orientation::from_out_lists(vec![vec![2, 1, 2], vec![], vec![]]);
        assert_eq!(o.out_neighbors(0), &[1, 2]);
        assert_eq!(o.num_edges(), 2);
    }

    #[test]
    fn arboricity_bounds_bracket_truth() {
        // Complete graph K_n has arboricity ceil(n/2).
        let g = gen::complete_graph(8);
        let lower = arboricity_lower_bound(&g);
        let upper = arboricity_upper_bound(&g);
        assert!(lower <= upper);
        assert_eq!(lower, 4);
        assert!((4..=7).contains(&upper));

        // A forest has arboricity 1.
        let tree = gen::star_graph(20);
        assert_eq!(arboricity_lower_bound(&tree), 1);
        assert_eq!(arboricity_upper_bound(&tree), 1);

        // Empty graph.
        assert_eq!(arboricity_lower_bound(&Graph::new(10)), 0);
    }
}
