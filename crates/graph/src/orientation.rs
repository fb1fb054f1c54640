//! Degeneracy orderings, bounded out-degree orientations and arboricity bounds.
//!
//! The listing algorithms of the paper are driven by an *orientation* of the
//! edges with bounded out-degree: a graph with arboricity `A` always admits an
//! orientation with out-degree `O(A)`, and the algorithms repeatedly halve the
//! arboricity of the "remaining" edge set while maintaining such an
//! orientation (Theorem 2.8). This module provides the sequential machinery:
//! degeneracy (core) orderings, upper and lower bounds on the arboricity, and
//! one type for oriented rows, [`Orientation`]. The same CSR rows hold the
//! later-neighbour DAG that the clique enumeration walks (built by the peel
//! that finds the ordering) and the orientations the CONGEST pipeline carries
//! between LIST invocations (built from arcs, thinned by one merge per row).

use crate::edge::EdgeSet;
use crate::graph::{push_difference, Graph};

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
/// [`Orientation::from_degeneracy`] without the rows.
pub fn degeneracy_ordering(graph: &Graph) -> DegeneracyOrdering {
    peel::<false>(graph).0
}

/// The degeneracy ordering of `graph` and its later-neighbour
/// [`Orientation`], both from one peel: the neighbours still unpeeled when
/// `v` is peeled are exactly its later neighbours, already sorted by id, so
/// the peel writes `v`'s row as it goes. Equal to [`degeneracy_ordering`]
/// followed by [`Orientation::from_ordering`].
pub(crate) fn degeneracy_dag(graph: &Graph) -> (DegeneracyOrdering, Orientation) {
    peel::<true>(graph)
}

/// Marks a peeled vertex in the peel's degree array.
const PEELED: u32 = u32::MAX;

/// The bucket-queue peel. With `ROWS` it writes each peeled vertex's row of
/// later neighbours; without, the returned orientation is empty and nothing
/// is allocated for it.
///
/// Buckets hold stale entries: a vertex whose degree drops is pushed again
/// one bucket lower and its old entry is skipped when popped. Every unpeeled
/// vertex `v` has exactly one live entry, in bucket `degree[v]`, and
/// `cursor` never exceeds the smallest remaining degree (it drops with every
/// decrement below it), so scanning up from `cursor` finds the next vertex.
fn peel<const ROWS: bool>(graph: &Graph) -> (DegeneracyOrdering, Orientation) {
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
        Orientation::with_capacity(n, graph.num_edges())
    } else {
        Orientation::with_capacity(0, 0)
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

/// An orientation of (a subset of) a graph's edges: each edge is directed
/// away from exactly one endpoint, and the quantity of interest is the
/// maximum out-degree.
///
/// The rows are CSR: each vertex records the `[start, end)` span of its
/// out-neighbours in one `targets` array, every row sorted by vertex id.
/// Built by the peel ([`Orientation::from_degeneracy`]) or from any ordering
/// ([`Orientation::from_ordering`]), it is the acyclic "later-neighbour" DAG
/// of that ordering with the rows laid out in peeling order, the order the
/// ordered search visits its roots: the substrate of the clique enumeration
/// in [`crate::cliques`], whose out-degrees are at most the degeneracy, so
/// per-depth candidate buffers are sized once up front and candidate sets
/// stay sorted for merge intersections. Built from arcs
/// ([`Orientation::from_arcs`]) or by dropping edges
/// ([`Orientation::without_edges_of`], [`Orientation::restrict_to`]), the
/// rows lie in id order. Equality compares each vertex's row, not the
/// layout.
#[derive(Clone, Debug, Default)]
pub struct Orientation {
    /// `spans[v]` is the `[start, end)` range of `v`'s row in `targets`.
    spans: Vec<[u32; 2]>,
    /// Concatenated out-neighbour rows, each sorted by vertex id.
    targets: Vec<u32>,
}

/// [`Orientation`] under the name the repository benchmark (`perfbench/`)
/// still calls `from_ordering` through.
pub type OrientedDag = Orientation;

impl Orientation {
    /// An orientation over `n` vertices with empty rows and room for `m`
    /// arcs.
    fn with_capacity(n: usize, m: usize) -> Self {
        Orientation {
            spans: vec![[0, 0]; n],
            targets: Vec::with_capacity(m),
        }
    }

    /// Ends `v`'s row: the arcs appended since `start`.
    fn close_row(&mut self, v: u32, start: u32) {
        self.spans[v as usize] = [start, self.targets.len() as u32];
    }

    /// Orients every edge of `graph` from the endpoint that appears earlier
    /// in `ordering` towards the later one, in one linear pass over the
    /// ordering.
    ///
    /// # Panics
    ///
    /// Panics if `ordering` does not cover the vertices of `graph`.
    pub fn from_ordering(graph: &Graph, ordering: &DegeneracyOrdering) -> Self {
        let n = graph.num_vertices();
        assert_eq!(ordering.order.len(), n, "ordering must cover every vertex");
        let position = &ordering.position;
        let mut orientation = Orientation::with_capacity(n, graph.num_edges());
        for (i, &v) in ordering.order.iter().enumerate() {
            let start = orientation.targets.len() as u32;
            orientation.targets.extend(
                graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| position[w as usize] > i),
            );
            orientation.close_row(v, start);
        }
        orientation
    }

    /// Orients every edge of `graph` along a degeneracy ordering, in one
    /// peel. The maximum out-degree equals the degeneracy, which is at most
    /// `2A - 1` for a graph of arboricity `A`.
    pub fn from_degeneracy(graph: &Graph) -> Self {
        degeneracy_dag(graph).1
    }

    /// Builds an orientation over `n` vertices from its arcs
    /// `(source, target)`, given in any order: each row is sorted by id and
    /// repeated arcs count once.
    ///
    /// # Panics
    ///
    /// Panics if a source is not below `n`.
    pub fn from_arcs(n: usize, mut arcs: Vec<(u32, u32)>) -> Self {
        arcs.sort_unstable();
        arcs.dedup();
        let mut orientation = Orientation::with_capacity(n, arcs.len());
        let mut rest = arcs.as_slice();
        for v in 0..n as u32 {
            let start = orientation.targets.len() as u32;
            let (row, tail) = rest.split_at(rest.partition_point(|&(u, _)| u <= v));
            orientation.targets.extend(row.iter().map(|&(_, w)| w));
            orientation.close_row(v, start);
            rest = tail;
        }
        assert!(rest.is_empty(), "arc source out of range");
        orientation
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.spans.len()
    }

    /// Number of oriented edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The out-neighbours of `v` (edges directed away from `v`), sorted by
    /// vertex id.
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
    /// orientation comes from a degeneracy ordering).
    pub fn max_out_degree(&self) -> usize {
        self.spans
            .iter()
            .map(|&[start, end]| (end - start) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Whether edge `u -> v` is oriented away from `u`.
    pub fn is_oriented(&self, u: u32, v: u32) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
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

    /// The orientation whose row of each vertex `v` is what `keep` appends
    /// given `v`'s row, with the rows in id order.
    fn map_rows(&self, mut keep: impl FnMut(u32, &[u32], &mut Vec<u32>)) -> Orientation {
        let mut kept = Orientation::with_capacity(self.num_vertices(), self.num_edges());
        for v in 0..self.num_vertices() as u32 {
            let start = kept.targets.len() as u32;
            keep(v, self.out_neighbors(v), &mut kept.targets);
            kept.close_row(v, start);
        }
        kept
    }

    /// Restricts the orientation to the edges in `keep`, preserving directions.
    pub fn restrict_to(&self, keep: &EdgeSet) -> Orientation {
        self.map_rows(|u, row, kept| kept.extend(row.iter().filter(|&&v| keep.contains_pair(u, v))))
    }

    /// Drops the edges of `removed`, a graph on at least as many vertices,
    /// preserving the other directions: one merge per row.
    pub fn without_edges_of(&self, removed: &Graph) -> Orientation {
        self.map_rows(|u, row, kept| push_difference(row, removed.neighbors(u), kept))
    }

    /// Iterates over all oriented edges as `(source, target)` pairs, by
    /// source id and then target id.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
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

impl PartialEq for Orientation {
    /// Equal when both have the same vertices and each vertex the same row,
    /// whichever order the rows are laid out in.
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices() == other.num_vertices()
            && (0..self.num_vertices() as u32)
                .all(|v| self.out_neighbors(v) == other.out_neighbors(v))
    }
}

impl Eq for Orientation {}

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
        let identity = DegeneracyOrdering {
            order: vec![0, 1, 2, 3],
            position: vec![0, 1, 2, 3],
            degeneracy: 1,
        };
        let o = Orientation::from_ordering(&g, &identity);
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
        let dag = Orientation::from_ordering(&g, &ordering);
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
        assert_eq!(Orientation::from_degeneracy(&g), dag);
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

    /// The shapes the peel is pinned on: degenerate, sparse, dense and skewed.
    fn peel_graphs() -> [(&'static str, Graph); 9] {
        [
            ("empty", Graph::new(0)),
            ("isolated", Graph::new(7)),
            ("path", gen::path_graph(12)),
            ("star", gen::star_graph(15)),
            ("complete", gen::complete_graph(9)),
            ("sparse er", gen::erdos_renyi(300, 0.02, 5)),
            ("dense er", gen::erdos_renyi(120, 0.6, 8)),
            ("rmat", gen::rmat(9, 8, (0.57, 0.19, 0.19, 0.05), 2)),
            ("multipartite", gen::multipartite(220, 3, 0.8, 1)),
        ]
    }

    #[test]
    fn one_peel_matches_the_reference_ordering_and_dag() {
        for (name, g) in &peel_graphs() {
            let want = reference_ordering(g);
            assert_eq!(degeneracy_ordering(g), want, "{name}: ordering");
            let (ordering, dag) = degeneracy_dag(g);
            assert_eq!(ordering, want, "{name}: one-peel ordering");
            assert_eq!(dag, Orientation::from_ordering(g, &want), "{name}: dag");
            assert_eq!(Orientation::from_degeneracy(g), dag, "{name}: dag");
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
        let o = Orientation::from_arcs(3, vec![(0, 2), (0, 1), (0, 2)]);
        assert_eq!(o.out_neighbors(0), &[1, 2]);
        assert_eq!(o.num_edges(), 2);
        assert_eq!(o.num_vertices(), 3);
    }

    /// Rows the way a `Vec<Vec<u32>>` orientation built them: every edge
    /// from the endpoint with the smaller `(position, id)` to the other,
    /// each row sorted.
    fn reference_rows(graph: &Graph, position: &[usize]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); graph.num_vertices()];
        for (u, v) in graph.edges() {
            if (position[u as usize], u) < (position[v as usize], v) {
                out[u as usize].push(v);
            } else {
                out[v as usize].push(u);
            }
        }
        for row in &mut out {
            row.sort_unstable();
        }
        out
    }

    fn rows_of(o: &Orientation) -> Vec<Vec<u32>> {
        (0..o.num_vertices() as u32)
            .map(|v| o.out_neighbors(v).to_vec())
            .collect()
    }

    #[test]
    fn one_type_gives_the_vec_of_rows_reference() {
        let mut layouts_differ = false;
        for (seed, (name, g)) in peel_graphs().iter().enumerate() {
            let n = g.num_vertices();
            let ordering = degeneracy_ordering(g);
            let want = reference_rows(g, &ordering.position);
            let peeled = Orientation::from_degeneracy(g);
            assert_eq!(rows_of(&peeled), want, "{name}: from_degeneracy");
            assert_eq!(
                rows_of(&Orientation::from_ordering(g, &ordering)),
                want,
                "{name}: from_ordering"
            );

            // The arcs reversed, every third one twice: unsorted, with repeats.
            let arcs: Vec<(u32, u32)> = want
                .iter()
                .enumerate()
                .flat_map(|(u, row)| row.iter().map(move |&v| (u as u32, v)))
                .rev()
                .enumerate()
                .flat_map(|(i, arc)| std::iter::repeat_n(arc, 1 + usize::from(i % 3 == 0)))
                .collect();
            let from_arcs = Orientation::from_arcs(n, arcs);
            assert_eq!(rows_of(&from_arcs), want, "{name}: from_arcs");
            // Peel order and id order: two layouts, one orientation.
            assert_eq!(peeled, from_arcs, "{name}: layouts compare by rows");
            layouts_differ |= peeled.targets != from_arcs.targets;

            // Goal edges leave by an independent coin per edge.
            let coin = gen::erdos_renyi(n, 0.5, 40 + seed as u64);
            let goal: Vec<(u32, u32)> = g.edges().filter(|&(u, v)| coin.has_edge(u, v)).collect();
            let goal = Graph::from_edges(n, &goal).unwrap();
            let rest = g.without_edges_of(&goal);
            let thinned = peeled.without_edges_of(&goal);
            assert_eq!(
                rows_of(&thinned),
                reference_rows(&rest, &ordering.position),
                "{name}: without_edges_of"
            );
            assert_eq!(
                peeled.restrict_to(&rest.edge_set()),
                thinned,
                "{name}: restrict_to"
            );
            assert!(thinned.covers_exactly(&rest), "{name}");
        }
        assert!(
            layouts_differ,
            "some graph must lay its peel rows out apart from id order"
        );
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
