//! Compact undirected graphs in CSR (compressed sparse row) form.
//!
//! The adjacency structure is two flat arrays — `offsets` (one entry per
//! vertex plus a sentinel) and `nbrs` (all neighbour lists concatenated, each
//! sorted by vertex id) — so a neighbourhood is one contiguous, cache-friendly
//! slice. Point queries (`has_edge`) binary-search the shorter endpoint's row
//! in `O(log deg)`, but the hot paths deliberately avoid per-element point
//! queries: neighbourhood intersections are sorted merges over the CSR rows
//! (`common_neighbors_into`, [`intersect_sorted_into`]) in
//! `O(deg_u + deg_v)`, and the clique enumerator in [`crate::cliques`] works
//! on a pre-built oriented DAG with reusable buffers instead of probing
//! `has_edge` in its innermost loop.
//!
//! Subgraph builders (`edge_subgraph`, `without_edges`, `induced_keep_ids`)
//! are single-pass linear filters over the CSR arrays: rows stay sorted by
//! construction, so no per-vertex set rebuild is needed.

use crate::edge::{Edge, EdgeSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing or manipulating a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is not a vertex of the graph.
    VertexOutOfRange {
        /// The offending vertex identifier.
        vertex: u32,
        /// The number of vertices of the graph.
        n: usize,
    },
    /// A self-loop was supplied where a simple edge is required.
    SelfLoop {
        /// The vertex with the loop.
        vertex: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Size ratio from which [`intersect_sorted_into`] switches from the linear
/// two-pointer merge to galloping through the longer side. Galloping costs
/// `O(|short| · log |long|)`, so it wins once `|long| / |short|` clearly
/// exceeds `log |long|`; 32 keeps the linear merge for comparable rows
/// (where it is branch-predictable and cache-friendly) and reserves the
/// gallop for genuinely skewed pairs — a low-degree candidate set against a
/// hub's CSR row.
const GALLOP_RATIO: usize = 32;

/// Writes the sorted intersection of two sorted `u32` slices into `out`
/// (cleared first). Comparable sizes take the classic `O(|a| + |b|)`
/// two-pointer merge; skewed sizes (ratio ≥ `GALLOP_RATIO`) gallop: each
/// element of the shorter slice is located in the remaining suffix of the
/// longer one by doubling probes plus a bounded binary search, for
/// `O(|short| · log |long|)` total. Both paths produce identical output and
/// allocate nothing beyond `out`'s existing capacity.
pub fn intersect_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    if a.len() >= b.len().saturating_mul(GALLOP_RATIO) {
        return gallop_intersect(b, a, out);
    }
    if b.len() >= a.len().saturating_mul(GALLOP_RATIO) {
        return gallop_intersect(a, b, out);
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersects by galloping through `long` for each element of `short`
/// (`out` already cleared by the caller). The search window only ever moves
/// forward: `lo` is the first position of `long` not yet ruled out, so the
/// whole pass touches each element of `short` once and `O(log |long|)`
/// positions of `long` per element.
fn gallop_intersect(short: &[u32], long: &[u32], out: &mut Vec<u32>) {
    let mut lo = 0usize;
    for &x in short {
        // Probe forward with doubling steps until long[hi] >= x (or the end);
        // every position below lo is then known to hold a value < x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo.saturating_add(step).min(long.len());
            step <<= 1;
        }
        // The stopping probe itself may equal x, so the search window is
        // [lo, hi] clamped to the slice.
        let upper = if hi < long.len() { hi + 1 } else { long.len() };
        match long[lo..upper].binary_search(&x) {
            Ok(pos) => {
                out.push(x);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
}

/// An undirected simple graph on vertices `0..n`, stored in CSR form.
///
/// The neighbours of `v` live in `nbrs[offsets[v]..offsets[v+1]]`, sorted by
/// vertex id. See the module docs for the cost model.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// CSR row offsets; `offsets.len() == n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists.
    nbrs: Vec<u32>,
    num_edges: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            nbrs: Vec::new(),
            num_edges: 0,
        }
    }

    /// Assembles a graph from prebuilt CSR arrays. The caller (the batch
    /// application in [`crate::churn`]) guarantees the invariants: sorted,
    /// duplicate-free rows, symmetric adjacency, `offsets.len() == n + 1` and
    /// `num_edges == nbrs.len() / 2`.
    pub(crate) fn from_csr_parts(offsets: Vec<u32>, nbrs: Vec<u32>, num_edges: usize) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, nbrs.len());
        debug_assert_eq!(num_edges * 2, nbrs.len());
        Graph {
            offsets,
            nbrs,
            num_edges,
        }
    }

    /// Builds a graph from an edge list, ignoring duplicates.
    ///
    /// Single-pass linear construction: count degrees, scatter both directed
    /// copies into the CSR array, then sort and deduplicate each row in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if `u == v` for some edge.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
        }
        // Degree count (duplicates included; they are squeezed out below).
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Scatter.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut nbrs = vec![0u32; offsets[n] as usize];
        for &(u, v) in edges {
            nbrs[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            nbrs[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Sort each row and compact duplicates in place.
        let mut write = 0usize;
        let mut compacted = vec![0u32; n + 1];
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            nbrs[start..end].sort_unstable();
            compacted[v] = write as u32;
            let mut prev = u32::MAX;
            for read in start..end {
                let w = nbrs[read];
                if w != prev {
                    nbrs[write] = w;
                    write += 1;
                    prev = w;
                }
            }
        }
        compacted[n] = write as u32;
        nbrs.truncate(write);
        Ok(Graph {
            offsets: compacted,
            nbrs,
            num_edges: write / 2,
        })
    }

    /// Builds a graph from an [`EdgeSet`] over `n` vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    pub fn from_edge_set(n: usize, edges: &EdgeSet) -> Result<Self, GraphError> {
        let list: Vec<(u32, u32)> = edges.iter().map(Edge::endpoints).collect();
        Graph::from_edges(n, &list)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Average degree (`2m / n`; 0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// The sorted neighbour list of `v` — one contiguous CSR slice.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.nbrs[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Whether `u` and `v` are adjacent (`O(log min(deg_u, deg_v))`).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let n = self.num_vertices();
        if u == v || u as usize >= n || v as usize >= n {
            return false;
        }
        let (small, large) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small).binary_search(&large).is_ok()
    }

    /// Adds an edge, returning `true` if it was not already present.
    ///
    /// This splices into the flat CSR arrays (`O(n + m)` worst case), so it is
    /// meant for construction-time touch-ups (planting cliques into a
    /// generated background), not for bulk building — use
    /// [`Graph::from_edges`] for that.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<bool, GraphError> {
        let n = self.num_vertices();
        if u as usize >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v as usize >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.insert_directed(u, v);
        self.insert_directed(v, u);
        self.num_edges += 1;
        Ok(true)
    }

    /// Returns a copy of the graph with `extra` edges added; duplicates and
    /// already-present edges are ignored. One linear rebuild — the bulk
    /// counterpart of repeated [`Graph::add_edge`] calls, which each pay an
    /// `O(n + m)` CSR splice.
    ///
    /// # Errors
    ///
    /// Returns an error if an extra edge has an endpoint out of range or is a
    /// self-loop.
    pub fn with_edges_added(&self, extra: &[(u32, u32)]) -> Result<Graph, GraphError> {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges() + extra.len());
        edges.extend(self.edges());
        edges.extend_from_slice(extra);
        Graph::from_edges(self.num_vertices(), &edges)
    }

    /// Splices `v` into the sorted row of `u` and shifts the later offsets.
    fn insert_directed(&mut self, u: u32, v: u32) {
        let start = self.offsets[u as usize] as usize;
        let end = self.offsets[u as usize + 1] as usize;
        let pos = start + self.nbrs[start..end].partition_point(|&w| w < v);
        self.nbrs.insert(pos, v);
        for offset in &mut self.offsets[u as usize + 1..] {
            *offset += 1;
        }
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`, in
    /// lexicographic order.
    ///
    /// Each row is sorted, so the iterator binary-searches the first
    /// neighbour above `u` once per row and then walks the upper half
    /// directly — no per-element comparison.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32).flat_map(move |u| {
            let row = self.neighbors(u);
            let upper = row.partition_point(|&v| v < u);
            row[upper..].iter().map(move |&v| (u, v))
        })
    }

    /// Collects the edge set of the graph.
    pub fn edge_set(&self) -> EdgeSet {
        self.edges().map(|(u, v)| Edge::new(u, v)).collect()
    }

    /// Linear CSR filter: keeps exactly the neighbour entries for which
    /// `keep(u, v)` holds. `keep` must be symmetric, or the result is not a
    /// valid undirected graph.
    fn filter_neighbors(&self, mut keep: impl FnMut(u32, u32) -> bool) -> Graph {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut nbrs = Vec::with_capacity(self.nbrs.len());
        for u in 0..n as u32 {
            for &v in self.neighbors(u) {
                if keep(u, v) {
                    nbrs.push(v);
                }
            }
            offsets.push(nbrs.len() as u32);
        }
        let num_edges = nbrs.len() / 2;
        Graph {
            offsets,
            nbrs,
            num_edges,
        }
    }

    /// Returns the subgraph on the same vertex set containing only the given
    /// edges (edges not present in `self` are ignored). Single linear pass
    /// over the CSR arrays.
    pub fn edge_subgraph(&self, edges: &EdgeSet) -> Graph {
        self.filter_neighbors(|u, v| edges.contains_pair(u, v))
    }

    /// Returns the subgraph on the same vertex set with the given edges
    /// removed. Single linear pass over the CSR arrays.
    pub fn without_edges(&self, edges: &EdgeSet) -> Graph {
        self.filter_neighbors(|u, v| !edges.contains_pair(u, v))
    }

    /// Returns the subgraph induced by `vertices` **keeping the original
    /// vertex identifiers** (vertices outside the set become isolated).
    /// Single linear pass over the CSR arrays after building a membership
    /// mask.
    pub fn induced_keep_ids(&self, vertices: &[u32]) -> Graph {
        let mut mask = vec![false; self.num_vertices()];
        for &v in vertices {
            if (v as usize) < mask.len() {
                mask[v as usize] = true;
            }
        }
        self.filter_neighbors(|u, v| mask[u as usize] && mask[v as usize])
    }

    /// Sorted intersection of the neighbourhoods of `u` and `v`.
    ///
    /// Allocates the result; hot paths should prefer
    /// [`Graph::common_neighbors_into`] with a reused scratch buffer.
    pub fn common_neighbors(&self, u: u32, v: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.common_neighbors_into(u, v, &mut out);
        out
    }

    /// Writes the sorted intersection of the neighbourhoods of `u` and `v`
    /// into `out` (cleared first). `O(deg_u + deg_v)`, no allocation beyond
    /// `out`'s capacity — the scratch-buffer variant for hot callers.
    pub fn common_neighbors_into(&self, u: u32, v: u32, out: &mut Vec<u32>) {
        intersect_sorted_into(self.neighbors(u), self.neighbors(v), out);
    }

    /// Connected components as lists of vertices; singleton components are
    /// included.
    pub fn connected_components(&self) -> Vec<Vec<u32>> {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start as u32];
            seen[start] = true;
            let mut component = Vec::new();
            while let Some(v) = stack.pop() {
                component.push(v);
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// Vertices with at least one incident edge.
    pub fn non_isolated_vertices(&self) -> Vec<u32> {
        (0..self.num_vertices() as u32)
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1-2 triangle, 3 hanging off 2, 4 isolated.
        Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_properties() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.6).abs() < 1e-12);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 2 })
        );
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
        let err = GraphError::SelfLoop { vertex: 1 };
        assert!(format!("{err}").contains("self-loop"));
    }

    #[test]
    fn add_edge_keeps_sorted_invariant() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(3, 1).unwrap());
        assert!(g.add_edge(1, 0).unwrap());
        assert!(!g.add_edge(0, 1).unwrap());
        assert!(g.add_edge(1, 2).unwrap());
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.num_edges(), 3);
        assert!(g.add_edge(0, 0).is_err());
        assert!(g.add_edge(0, 9).is_err());
    }

    #[test]
    fn add_edge_matches_from_edges() {
        // The splice-based add_edge and the linear bulk build agree exactly.
        let edges = [(0u32, 5u32), (2, 3), (1, 4), (0, 1), (4, 5), (2, 5)];
        let bulk = Graph::from_edges(6, &edges).unwrap();
        let mut incremental = Graph::new(6);
        for &(u, v) in &edges {
            incremental.add_edge(u, v).unwrap();
        }
        assert_eq!(bulk, incremental);
    }

    #[test]
    fn common_neighbors_intersects() {
        let g = triangle_plus_pendant();
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
        assert_eq!(g.common_neighbors(0, 3), vec![2]);
        assert_eq!(g.common_neighbors(3, 4), Vec::<u32>::new());
    }

    #[test]
    fn common_neighbors_into_reuses_the_buffer() {
        let g = triangle_plus_pendant();
        let mut buf = vec![99, 99, 99];
        g.common_neighbors_into(0, 1, &mut buf);
        assert_eq!(buf, vec![2]);
        g.common_neighbors_into(3, 4, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn intersect_sorted_into_matches_naive() {
        let a = [1u32, 3, 4, 7, 9];
        let b = [0u32, 3, 7, 8, 9, 12];
        let mut out = Vec::new();
        intersect_sorted_into(&a, &b, &mut out);
        assert_eq!(out, vec![3, 7, 9]);
        intersect_sorted_into(&a, &[], &mut out);
        assert!(out.is_empty());
    }

    /// Reference linear merge, independent of the production dispatch.
    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn galloping_and_linear_merges_agree_on_skewed_inputs() {
        // Sizes far beyond GALLOP_RATIO in both argument orders, with hits
        // at the front, middle, back, and absent values interleaved.
        let long: Vec<u32> = (0..4096u32).map(|i| i * 3).collect();
        for short in [
            vec![0u32],
            vec![12_285u32],          // last element of `long`
            vec![1u32, 2, 4, 5],      // all misses
            vec![0u32, 3, 6, 12_285], // all hits
            vec![0u32, 1, 3000, 3001, 9000, 12_284, 12_285, 20_000],
            (0..120u32).map(|i| i * 101).collect(),
        ] {
            let expected = naive_intersect(&short, &long);
            let mut out = Vec::new();
            intersect_sorted_into(&short, &long, &mut out);
            assert_eq!(out, expected, "short-first {short:?}");
            intersect_sorted_into(&long, &short, &mut out);
            assert_eq!(out, expected, "long-first {short:?}");
        }
        // Just under the ratio stays on the linear path; results agree there
        // too (same function, both paths must be indistinguishable).
        let short: Vec<u32> = (0..200u32).map(|i| i * 7).collect();
        let mut out = Vec::new();
        intersect_sorted_into(&short, &long, &mut out);
        assert_eq!(out, naive_intersect(&short, &long));
    }

    #[test]
    fn edge_subgraph_and_removal() {
        let g = triangle_plus_pendant();
        let mut keep = EdgeSet::new();
        keep.insert(Edge::new(0, 1));
        keep.insert(Edge::new(2, 3));
        keep.insert(Edge::new(3, 4)); // not an edge of g, ignored
        let sub = g.edge_subgraph(&keep);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(0, 2));

        let rest = g.without_edges(&keep);
        assert_eq!(rest.num_edges(), 2);
        assert!(rest.has_edge(0, 2));
        assert!(rest.has_edge(1, 2));
        assert!(!rest.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_keeps_ids() {
        let g = triangle_plus_pendant();
        let sub = g.induced_keep_ids(&[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 5);
        assert_eq!(sub.num_edges(), 3);
        assert!(!sub.has_edge(2, 3));
    }

    #[test]
    fn components() {
        let g = triangle_plus_pendant();
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2, 3]);
        assert_eq!(comps[1], vec![4]);
        assert_eq!(g.non_isolated_vertices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn edge_set_roundtrip() {
        let g = triangle_plus_pendant();
        let set = g.edge_set();
        assert_eq!(set.len(), 4);
        let g2 = Graph::from_edge_set(5, &set).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn upper_half_edge_iterator_is_exact() {
        // The binary-search row split must reproduce the filtered iteration
        // exactly, including lexicographic order.
        let g = crate::gen::erdos_renyi(60, 0.2, 5);
        let fast: Vec<(u32, u32)> = g.edges().collect();
        let mut reference = Vec::new();
        for u in 0..60u32 {
            for &v in g.neighbors(u) {
                if u < v {
                    reference.push((u, v));
                }
            }
        }
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), g.num_edges());
        assert!(fast.windows(2).all(|w| w[0] < w[1]), "not lexicographic");
    }

    #[test]
    fn default_is_the_empty_graph() {
        let g = Graph::default();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
