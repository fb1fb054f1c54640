//! Exact `K_p` enumeration: the sequential ground truth and the shards that
//! parallelise it.
//!
//! The enumerator follows the standard ordered-search scheme (kClist-style):
//! fix a degeneracy ordering, build the [`OrientedDag`] of later neighbours
//! once, and for every vertex `v` enumerate cliques inside its out-neighbour
//! set. Because that candidate set has size at most the degeneracy `k`, the
//! running time is `O(n · k^{p-1})` for a graph of degeneracy `k`.
//!
//! The hot loop is allocation-free: one candidate arena with a pre-sized
//! buffer per recursion depth is reused across the whole enumeration, and
//! candidate intersections are sorted merges over CSR rows — with a
//! word-packed adjacency-bitset fast path for high-degree vertices — instead
//! of per-element `O(log deg)` `has_edge` probes. Visiting a clique performs
//! zero heap allocations.
//!
//! The root set of the ordered search is embarrassingly parallel: each root
//! explores only its own later-neighbour DAG, so disjoint root ranges can be
//! enumerated independently. [`ShardPlan`] partitions the ordering into
//! contiguous, work-balanced shards and [`ShardedEnumerator`] runs the same
//! arena-based search over any single shard. Callers fan shards out over
//! [`std::thread::scope`] workers through [`crate::ordered_merge`] and replay
//! the per-shard results in ascending shard order, so the emission order is
//! **byte-identical** to the sequential enumeration regardless of thread
//! count (see `DESIGN.md` §8).
//!
//! All of the search's build-once state — the degeneracy ordering, the
//! oriented DAG and the adjacency bitsets — lives in [`CliqueIndex`], an
//! owned, `Sync` artifact decoupled from any particular traversal. The
//! one-shot entry points build a private index per call; callers that answer
//! many queries against the same graph (the snapshot layer in the `query`
//! crate, the sharded engine path in `cliquelist`) build the index once and
//! share it across concurrent full, per-vertex and per-edge enumerations by
//! `&self` (see `DESIGN.md` §11).

use crate::orientation::{degeneracy_ordering, DegeneracyOrdering, OrientedDag};
use crate::{Clique, Graph};

#[path = "cliques_trie.rs"]
pub mod trie;

pub use trie::{KernelChoice, KernelStrategy, AUTO_TRIE_DEGENERACY, TRIE_NODE_WORD_BUDGET};

/// Ceiling on the adaptive bitset degree threshold (the value every graph
/// used before the threshold became adaptive).
///
/// Intersecting a candidate set `C` with the neighbourhood of `u` costs
/// `O(|C| + deg u)` as a sorted merge but only `O(|C|)` against a bitset, so
/// a bitset row is never slower to *probe* — the threshold exists purely to
/// bound the table's memory. [`bitset_threshold`] therefore starts from
/// [`MIN_BITSET_DEGREE_THRESHOLD`] and raises the bar only while the
/// qualifying rows overflow [`BITSET_WORD_BUDGET`], never past this ceiling.
const BITSET_DEGREE_THRESHOLD: usize = 64;

/// Floor of the adaptive bitset degree threshold: rows below this degree are
/// so short that the sorted merge is already a handful of comparisons and a
/// bitset row would waste `⌈n/64⌉` words on it.
const MIN_BITSET_DEGREE_THRESHOLD: usize = 8;

/// Picks the bitset degree threshold for `graph`: the smallest candidate in
/// `{8, 16, 32, 64}` whose qualifying rows fit [`BITSET_WORD_BUDGET`]
/// outright. Small and mid-size graphs get bitset rows for nearly every
/// vertex that matters (widening the `O(|C|)` probe fast path well below the
/// historical 64-degree bar); on graphs where even degree-64 rows overflow
/// the budget the ceiling is returned and [`NeighborBitsets::build`]'s
/// highest-degree-first truncation takes over, exactly as before. Pure in
/// the graph's degree sequence, so cold and incremental builds agree.
fn bitset_threshold(graph: &Graph) -> usize {
    let n = graph.num_vertices();
    let stride = n.div_ceil(64);
    let mut threshold = MIN_BITSET_DEGREE_THRESHOLD;
    while threshold < BITSET_DEGREE_THRESHOLD {
        let qualifying = (0..n as u32)
            .filter(|&v| graph.degree(v) >= threshold)
            .count();
        if qualifying.saturating_mul(stride) <= BITSET_WORD_BUDGET {
            return threshold;
        }
        threshold *= 2;
    }
    BITSET_DEGREE_THRESHOLD
}

/// Total `u64` budget for the bitset table (16 MiB). Each row costs `⌈n/64⌉`
/// words, so on large graphs where most vertices clear the degree threshold
/// an unbounded table would be `O(n²/64)` — the budget caps the table at a
/// fixed size and hands the remaining vertices to the sorted-merge path,
/// which is correct either way (both paths produce the same candidate list).
const BITSET_WORD_BUDGET: usize = 1 << 21;

/// Word-packed adjacency rows for the high-degree vertices of a graph.
///
/// `row_of[v]` indexes into `words` (stride [`NeighborBitsets::stride`]) when
/// `deg(v) >= BITSET_DEGREE_THRESHOLD`, and is `u32::MAX` otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NeighborBitsets {
    stride: usize,
    words: Vec<u64>,
    row_of: Vec<u32>,
}

impl NeighborBitsets {
    /// Builds bitsets for vertices of degree at least `threshold`, spending
    /// at most [`BITSET_WORD_BUDGET`] words. When the budget cannot cover
    /// every qualifying vertex, the highest-degree ones get the rows (they
    /// save the most merge work); the rest use the merge path.
    fn build(graph: &Graph, threshold: usize) -> Self {
        let n = graph.num_vertices();
        let stride = n.div_ceil(64);
        let mut row_of = vec![u32::MAX; n];
        let mut heavy: Vec<u32> = (0..n as u32)
            .filter(|&v| graph.degree(v) >= threshold.max(1))
            .collect();
        heavy.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        heavy.truncate(BITSET_WORD_BUDGET / stride.max(1));
        let mut words = vec![0u64; heavy.len() * stride];
        for (row, &v) in heavy.iter().enumerate() {
            row_of[v as usize] = row as u32;
            let base = row * stride;
            for &w in graph.neighbors(v) {
                words[base + (w as usize >> 6)] |= 1u64 << (w & 63);
            }
        }
        NeighborBitsets {
            stride,
            words,
            row_of,
        }
    }

    /// An empty table (every intersection falls back to the sorted merge).
    fn none(n: usize) -> Self {
        NeighborBitsets {
            stride: 0,
            words: Vec::new(),
            row_of: vec![u32::MAX; n],
        }
    }

    /// The bitset row of `v`, if `v` is above the degree threshold.
    fn row(&self, v: u32) -> Option<&[u64]> {
        let r = self.row_of[v as usize];
        if r == u32::MAX {
            None
        } else {
            let start = r as usize * self.stride;
            Some(&self.words[start..start + self.stride])
        }
    }

    /// Rebuilds the table for a mutated graph, reusing `old` rows verbatim.
    ///
    /// The heavy-vertex selection (degree threshold, budget truncation by
    /// `(Reverse(degree), v)`) is recomputed from scratch against the new
    /// degrees — it is the same code path as [`NeighborBitsets::build`], so
    /// the selection is identical to a cold build. Only the *row contents*
    /// are patched: a vertex whose adjacency is untouched by the batch and
    /// that already owned a row in `old` has its words copied verbatim; every
    /// other heavy vertex gets its row rebuilt from the CSR. Returns the
    /// table plus `(rows reused, rows rebuilt)`.
    fn patched(
        graph: &Graph,
        threshold: usize,
        old: &NeighborBitsets,
        touched: &[bool],
    ) -> (Self, usize, usize) {
        let n = graph.num_vertices();
        let stride = n.div_ceil(64);
        let mut row_of = vec![u32::MAX; n];
        let mut heavy: Vec<u32> = (0..n as u32)
            .filter(|&v| graph.degree(v) >= threshold.max(1))
            .collect();
        heavy.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        heavy.truncate(BITSET_WORD_BUDGET / stride.max(1));
        let mut words = vec![0u64; heavy.len() * stride];
        let (mut reused, mut rebuilt) = (0usize, 0usize);
        for (row, &v) in heavy.iter().enumerate() {
            row_of[v as usize] = row as u32;
            let base = row * stride;
            match old.row(v) {
                Some(old_row) if !touched[v as usize] && old.stride == stride => {
                    words[base..base + stride].copy_from_slice(old_row);
                    reused += 1;
                }
                _ => {
                    for &w in graph.neighbors(v) {
                        words[base + (w as usize >> 6)] |= 1u64 << (w & 63);
                    }
                    rebuilt += 1;
                }
            }
        }
        (
            NeighborBitsets {
                stride,
                words,
                row_of,
            },
            reused,
            rebuilt,
        )
    }
}

/// Writes `{w ∈ cand : w adjacent to u}` into `out` (cleared first),
/// preserving the sorted order of `cand`. Uses the bitset row of `u` when one
/// exists and a two-pointer merge with the CSR row otherwise; either way the
/// result is identical and nothing is allocated beyond `out`'s capacity.
fn intersect_candidates(
    graph: &Graph,
    bitsets: &NeighborBitsets,
    u: u32,
    cand: &[u32],
    out: &mut Vec<u32>,
) {
    if let Some(row) = bitsets.row(u) {
        out.clear();
        for &w in cand {
            if row[w as usize >> 6] >> (w & 63) & 1 == 1 {
                out.push(w);
            }
        }
    } else {
        crate::graph::intersect_sorted_into(cand, graph.neighbors(u), out);
    }
}

/// The build-once, query-many state of the ordered clique search: the
/// degeneracy ordering, its [`OrientedDag`] of later neighbours and the
/// high-degree adjacency bitsets, all owned and immutable.
///
/// An index is built from one graph and is only meaningful against that
/// graph: every query method takes the graph by reference so the index itself
/// stays free of lifetimes and can be stored next to the graph it describes
/// (the `query` crate's `GraphSnapshot` holds exactly that pair behind an
/// `Arc`). All state is read-only after construction, so one index serves any
/// number of concurrent enumerations — full listings, shards, per-vertex and
/// per-edge queries — by shared reference; each call allocates its own
/// candidate arena and scratch.
///
/// The index is `p`-independent: one build answers queries for every clique
/// size. Only [`ShardPlan`]s are per-`p`, and those are planned from the
/// index's DAG via [`ShardPlan::balanced`].
///
/// `PartialEq` compares the *entire* built state — ordering, DAG, bitset
/// table, out-degree bound — which is what lets the churn differential
/// battery assert that an incrementally patched index is structurally
/// identical to one built from scratch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueIndex {
    ordering: DegeneracyOrdering,
    dag: OrientedDag,
    bitsets: NeighborBitsets,
    max_out: usize,
}

/// What [`CliqueIndex::build_incremental`] managed to reuse: the adjacency
/// bitset rows copied verbatim from the previous index versus those rebuilt
/// from the mutated CSR. Surfaced through the `query` crate's `ChurnReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexPatchStats {
    /// Heavy-vertex bitset rows copied from the previous index unchanged.
    pub bitset_rows_reused: usize,
    /// Heavy-vertex bitset rows rebuilt from the new adjacency.
    pub bitset_rows_rebuilt: usize,
}

impl CliqueIndex {
    /// Builds the index of `graph`: degeneracy ordering, oriented DAG and
    /// adjacency bitsets, in `O(n + m)` time plus the bounded bitset table.
    pub fn build(graph: &Graph) -> CliqueIndex {
        let ordering = degeneracy_ordering(graph);
        let dag = OrientedDag::from_ordering(graph, &ordering);
        let bitsets = NeighborBitsets::build(graph, bitset_threshold(graph));
        let max_out = dag.max_out_degree();
        CliqueIndex {
            ordering,
            dag,
            bitsets,
            max_out,
        }
    }

    /// Rebuilds the index for a mutated graph, reusing what the mutation
    /// provably did not change.
    ///
    /// `previous` must be the index of the pre-mutation graph and
    /// `touched[v]` must be `true` for every vertex whose adjacency row
    /// changed (both endpoints of every effectively inserted or deleted
    /// edge). The adjacency bitset rows of untouched heavy vertices are
    /// copied verbatim; the degeneracy ordering and oriented DAG are
    /// recomputed with the standard `O(n + m)` bucket pass, because the
    /// bucket algorithm's tie-breaking depends on its global push/pop history
    /// — a locally patched ordering would be a *valid* degeneracy ordering
    /// but not byte-identical to the from-scratch one, and byte-identity is
    /// the determinism contract (`DESIGN.md` §13).
    ///
    /// The returned index is guaranteed equal (`==`) to
    /// `CliqueIndex::build(graph)`.
    pub fn build_incremental(
        graph: &Graph,
        previous: &CliqueIndex,
        touched: &[bool],
    ) -> (CliqueIndex, IndexPatchStats) {
        debug_assert_eq!(touched.len(), graph.num_vertices());
        let ordering = degeneracy_ordering(graph);
        let dag = OrientedDag::from_ordering(graph, &ordering);
        let (bitsets, reused, rebuilt) =
            NeighborBitsets::patched(graph, bitset_threshold(graph), &previous.bitsets, touched);
        let max_out = dag.max_out_degree();
        (
            CliqueIndex {
                ordering,
                dag,
                bitsets,
                max_out,
            },
            IndexPatchStats {
                bitset_rows_reused: reused,
                bitset_rows_rebuilt: rebuilt,
            },
        )
    }

    /// The degeneracy ordering the search roots follow.
    pub fn ordering(&self) -> &DegeneracyOrdering {
        &self.ordering
    }

    /// The word-packed adjacency row of `v`, if `v` is above the bitset
    /// degree threshold (bit `w` set ⟺ `w` adjacent to `v`). Exposed so the
    /// property-test helpers can check bitset↔CSR agreement.
    pub fn bitset_row(&self, v: u32) -> Option<&[u64]> {
        self.bitsets.row(v)
    }

    /// The DAG of later neighbours under the degeneracy ordering.
    pub fn dag(&self) -> &OrientedDag {
        &self.dag
    }

    /// The degeneracy of the indexed graph (bounds every candidate set).
    pub fn degeneracy(&self) -> usize {
        self.ordering.degeneracy
    }

    /// A fresh per-call candidate arena: one pre-sized buffer per recursion
    /// depth. Capacities are hints (per-vertex/per-edge candidate sets may
    /// exceed the DAG out-degree bound and simply grow).
    fn arena(&self, p: usize) -> Vec<Vec<u32>> {
        (0..p.saturating_sub(1))
            .map(|_| Vec::with_capacity(self.max_out))
            .collect()
    }

    /// Resolves a [`KernelStrategy`] against this index's graph: explicit
    /// choices are honoured, `Auto` applies the degeneracy heuristic
    /// ([`AUTO_TRIE_DEGENERACY`]), and any trie choice whose largest
    /// candidate set would overflow [`TRIE_NODE_WORD_BUDGET`] falls back to
    /// the recursive kernel (both kernels emit identical bytes, so the
    /// fallback is purely a memory decision). Pure in the built index, so
    /// every enumeration over the same graph resolves the same way.
    pub fn resolve_kernel(&self, strategy: KernelStrategy) -> KernelChoice {
        match strategy.resolve(self.degeneracy()) {
            KernelChoice::Trie if trie::node_fits_budget(self.max_out) => KernelChoice::Trie,
            _ => KernelChoice::Recursive,
        }
    }

    /// [`for_each_clique_while`] against a prebuilt index: calls `visit` for
    /// every `p`-clique of `graph` in the deterministic sequential order
    /// until it declines; returns whether the enumeration completed. Runs
    /// the kernel [`KernelStrategy::Auto`] resolves to for this graph.
    ///
    /// `graph` must be the graph this index was built from.
    pub fn for_each_clique_while(
        &self,
        graph: &Graph,
        p: usize,
        visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        self.for_each_clique_while_with(graph, p, KernelStrategy::Auto, visit)
    }

    /// [`CliqueIndex::for_each_clique_while`] under an explicit
    /// [`KernelStrategy`]. The strategy affects wall-clock time only: both
    /// kernels emit the same cliques in the same order, byte for byte (the
    /// kernel differential battery enforces this), so callers may switch
    /// strategies freely without perturbing any downstream determinism
    /// contract.
    pub fn for_each_clique_while_with(
        &self,
        graph: &Graph,
        p: usize,
        strategy: KernelStrategy,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if p < 3 {
            return small_p_while(graph, p, visit);
        }
        let mut stack: Vec<u32> = Vec::with_capacity(p);
        let mut scratch: Vec<u32> = Vec::with_capacity(p);
        match self.resolve_kernel(strategy) {
            KernelChoice::Trie => trie::TrieKernel::new().enumerate_roots(
                graph,
                &self.bitsets,
                &self.dag,
                p,
                &self.ordering.order,
                &mut stack,
                &mut scratch,
                &mut visit,
            ),
            KernelChoice::Recursive => {
                let mut arena = self.arena(p);
                enumerate_roots(
                    graph,
                    &self.bitsets,
                    &self.dag,
                    p,
                    &self.ordering.order,
                    &mut arena,
                    &mut stack,
                    &mut scratch,
                    &mut visit,
                )
            }
        }
    }

    /// Streams every `p`-clique of `graph` containing the vertex `v`
    /// (canonical sorted form, each exactly once, deterministic order) until
    /// `visit` declines; returns whether the query completed. An out-of-range
    /// vertex visits nothing and completes.
    ///
    /// `graph` must be the graph this index was built from.
    pub fn for_each_containing_vertex_while(
        &self,
        graph: &Graph,
        p: usize,
        v: u32,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if p == 0 || (v as usize) >= graph.num_vertices() {
            return true;
        }
        if p == 1 {
            return visit(&[v]);
        }
        if p == 2 {
            for &w in graph.neighbors(v) {
                if !visit(&[v.min(w), v.max(w)]) {
                    return false;
                }
            }
            return true;
        }
        // Candidates: the whole (sorted) neighbourhood of v. Each clique
        // containing v is its other p-1 vertices chosen from N(v) in
        // increasing id order, so it is visited exactly once.
        let mut arena = self.arena(p);
        arena[0].extend_from_slice(graph.neighbors(v));
        let mut stack = vec![v];
        let mut scratch: Vec<u32> = Vec::with_capacity(p);
        extend_clique(
            graph,
            &self.bitsets,
            p,
            &mut arena,
            &mut stack,
            &mut scratch,
            &mut visit,
        )
    }

    /// Streams every `p`-clique of `graph` containing the edge `{a, b}`
    /// (canonical sorted form, ascending canonical order, each exactly once)
    /// until `visit` declines; returns whether the query completed. An absent
    /// edge visits nothing and completes. Unlike [`EdgeCliqueEnumerator`]
    /// this takes `&self` — scratch state is per call — so one index answers
    /// concurrent per-edge queries.
    ///
    /// `graph` must be the graph this index was built from.
    pub fn for_each_containing_edge_while(
        &self,
        graph: &Graph,
        p: usize,
        a: u32,
        b: u32,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if p < 2 || !graph.has_edge(a, b) {
            return true;
        }
        if p == 2 {
            return visit(&[a.min(b), a.max(b)]);
        }
        let mut arena = self.arena(p);
        graph.common_neighbors_into(a, b, &mut arena[0]);
        let mut stack = vec![a.min(b), a.max(b)];
        let mut scratch: Vec<u32> = Vec::with_capacity(p);
        extend_clique(
            graph,
            &self.bitsets,
            p,
            &mut arena,
            &mut stack,
            &mut scratch,
            &mut visit,
        )
    }
}

/// The trivial `p ≤ 2` enumerations (empty clique, vertices, edges), shared
/// by the one-shot and the index-backed entry points.
fn small_p_while(graph: &Graph, p: usize, mut visit: impl FnMut(&[u32]) -> bool) -> bool {
    match p {
        0 => visit(&[]),
        1 => {
            for v in 0..graph.num_vertices() as u32 {
                if !visit(&[v]) {
                    return false;
                }
            }
            true
        }
        _ => {
            for (u, v) in graph.edges() {
                if !visit(&[u, v]) {
                    return false;
                }
            }
            true
        }
    }
}

/// Lists every clique on exactly `p` vertices, each exactly once, in
/// canonical (sorted) form.
///
/// `p = 0` yields the single empty clique, `p = 1` yields all vertices and
/// `p = 2` yields all edges, so the function is total in `p`.
pub fn list_cliques(graph: &Graph, p: usize) -> Vec<Clique> {
    let mut out = Vec::new();
    for_each_clique(graph, p, |c| out.push(c.to_vec()));
    out.sort_unstable();
    out
}

/// Counts the cliques on exactly `p` vertices without materialising them.
pub fn count_cliques(graph: &Graph, p: usize) -> usize {
    let mut count = 0usize;
    for_each_clique(graph, p, |_| count += 1);
    count
}

/// Calls `visit` once for every `p`-clique; the slice passed to the callback
/// is sorted in increasing vertex order.
pub fn for_each_clique(graph: &Graph, p: usize, mut visit: impl FnMut(&[u32])) {
    for_each_clique_while(graph, p, |c| {
        visit(c);
        true
    });
}

/// Like [`for_each_clique`], but the callback returns whether to continue:
/// returning `false` aborts the enumeration immediately. Returns `true` when
/// the enumeration ran to completion and `false` when it was aborted.
///
/// This is the streaming building block for consumers that only want a
/// bounded prefix of the listing (e.g. a saturating clique sink): the
/// ordered-search recursion unwinds as soon as the callback declines, so an
/// early stop costs nothing beyond the cliques already visited.
///
/// The enumeration allocates its working state (degeneracy ordering, oriented
/// DAG, per-depth candidate arena, adjacency bitsets) once up front and
/// nothing afterwards: no allocation per visited clique, no allocation per
/// recursion node.
pub fn for_each_clique_while(graph: &Graph, p: usize, visit: impl FnMut(&[u32]) -> bool) -> bool {
    for_each_clique_while_with(graph, p, KernelStrategy::Auto, visit)
}

/// [`for_each_clique_while`] under an explicit [`KernelStrategy`]. Output is
/// byte-identical across strategies; only wall-clock time differs.
pub fn for_each_clique_while_with(
    graph: &Graph,
    p: usize,
    strategy: KernelStrategy,
    visit: impl FnMut(&[u32]) -> bool,
) -> bool {
    if p < 3 {
        return small_p_while(graph, p, visit);
    }
    CliqueIndex::build(graph).for_each_clique_while_with(graph, p, strategy, visit)
}

/// Runs the ordered search from every root in `roots` (a slice of the
/// degeneracy ordering, in peel order). This is the loop shared by the
/// sequential enumeration (all roots) and the sharded enumeration (one
/// contiguous root range per shard): concatenating the visits of consecutive
/// root ranges reproduces the sequential visit order exactly.
#[allow(clippy::too_many_arguments)]
fn enumerate_roots(
    graph: &Graph,
    bitsets: &NeighborBitsets,
    dag: &OrientedDag,
    p: usize,
    roots: &[u32],
    arena: &mut [Vec<u32>],
    stack: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    visit: &mut impl FnMut(&[u32]) -> bool,
) -> bool {
    for &v in roots {
        // Candidates: later neighbours of v, sorted by id.
        let candidates = dag.out_neighbors(v);
        if candidates.len() + 1 < p {
            continue;
        }
        arena[0].clear();
        arena[0].extend_from_slice(candidates);
        stack.push(v);
        let keep_going = extend_clique(graph, bitsets, p, arena, stack, scratch, visit);
        stack.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

/// Recursively extends the clique on `stack` using the candidate set in
/// `arena[0]` (all of whose vertices are adjacent to every vertex already on
/// the stack); `arena[1..]` provides the pre-sized buffers for the deeper
/// candidate sets. Returns `false` as soon as the visitor declines, unwinding
/// the whole recursion. `scratch` receives the sorted copy passed to the
/// visitor (reused across visits — no per-clique allocation).
fn extend_clique(
    graph: &Graph,
    bitsets: &NeighborBitsets,
    p: usize,
    arena: &mut [Vec<u32>],
    stack: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    visit: &mut impl FnMut(&[u32]) -> bool,
) -> bool {
    let (current, deeper) = arena.split_at_mut(1);
    let candidates: &[u32] = &current[0];
    let needed = p - stack.len();
    if candidates.len() < needed {
        return true;
    }
    let completing = stack.len() + 1 == p;
    for (i, &u) in candidates.iter().enumerate() {
        // Prune: not enough candidates remain after u.
        if candidates.len() - i < needed {
            break;
        }
        stack.push(u);
        let keep_going = if completing {
            scratch.clear();
            scratch.extend_from_slice(stack);
            scratch.sort_unstable();
            visit(scratch)
        } else {
            intersect_candidates(graph, bitsets, u, &candidates[i + 1..], &mut deeper[0]);
            extend_clique(graph, bitsets, p, deeper, stack, scratch, visit)
        };
        stack.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

/// A partition of a degeneracy ordering's roots into contiguous,
/// work-balanced shards — the unit of parallelism of the sharded clique
/// enumeration.
///
/// Each shard is a half-open range of *positions* in the peel order. Shards
/// are contiguous and cover every position exactly once, so enumerating the
/// shards in ascending index order visits the roots in exactly the sequential
/// order — this is what makes the parallel enumeration's merged output
/// byte-identical to [`for_each_clique_while`] (see `DESIGN.md` §8).
///
/// Balancing uses a per-root work estimate that is quadratic in the root's
/// later-degree `d` (the first candidate level has `d` vertices and each
/// costs up to another `O(d)` intersection), so a handful of dense cores do
/// not all land in one shard. The estimate only shapes the *boundaries*;
/// correctness never depends on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Half-open `(start, end)` position ranges, ascending and contiguous.
    ranges: Vec<(u32, u32)>,
}

/// Work estimate for one root: constant bookkeeping plus degree terms once
/// the root can contribute a `p`-clique at all.
///
/// For `p ≥ 4` the recursion below a root is at least two candidate levels
/// deep and the quadratic term dominates honestly. For `p = 3` the search is
/// one intersection pass per candidate, so the real cost per root is
/// `c₀ + c₁·d + d²/2` with per-root bookkeeping (arena copy, stack ops,
/// shard bookkeeping) comparable to the probe term at the degrees a
/// heavy-tailed (rmat-like) ordering actually produces. A pure `1 + d²`
/// estimate therefore overweights the few dense roots and packs the long
/// sparse tail — whose constant-and-linear cost it rounds to nothing — into
/// oversized shards; the p-aware constant and linear terms restore the
/// balance (asserted on the rmat workload in
/// `triangle_shard_plans_balance_the_measured_work_better`).
fn root_work(out_degree: usize, p: usize) -> u64 {
    let d = out_degree as u64;
    if out_degree + 1 < p {
        1
    } else if p == 3 {
        8 + 4 * d + d * d / 2
    } else {
        1 + d * d
    }
}

impl ShardPlan {
    /// Plans at most `target_shards` contiguous shards over the roots of
    /// `ordering`, greedily cutting whenever the accumulated work estimate
    /// reaches an equal share of the total. Every shard is non-empty; the
    /// plan may hold fewer shards than requested (e.g. on tiny graphs).
    pub fn balanced(
        dag: &OrientedDag,
        ordering: &DegeneracyOrdering,
        p: usize,
        target_shards: usize,
    ) -> Self {
        let weights: Vec<u64> = ordering
            .order
            .iter()
            .map(|&v| root_work(dag.out_degree(v), p))
            .collect();
        ShardPlan {
            ranges: crate::ordered_merge::balanced_ranges(&weights, target_shards),
        }
    }

    /// Number of planned shards (0 only for the empty graph).
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The position range (into the ordering's `order`) of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let (start, end) = self.ranges[shard];
        start as usize..end as usize
    }

    /// Iterates over the shard ranges in ascending order.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.ranges.iter().map(|&(s, e)| s as usize..e as usize)
    }
}

/// The sharable state of a sharded `p`-clique enumeration: a [`CliqueIndex`]
/// (owned, or borrowed from a caller that amortises one index across many
/// enumerations) plus a [`ShardPlan`] — everything built exactly once, all of
/// it read-only during enumeration so one instance can serve any number of
/// worker threads by shared reference.
///
/// [`ShardedEnumerator::for_each_in_shard_while`] runs the same arena-based
/// ordered search as [`for_each_clique_while`], restricted to one shard's
/// roots; visiting shards `0, 1, 2, …` in order reproduces the sequential
/// visit order exactly.
pub struct ShardedEnumerator<'g> {
    graph: &'g Graph,
    p: usize,
    index: IndexHandle<'g>,
    plan: ShardPlan,
    kernel: KernelChoice,
}

/// How a [`ShardedEnumerator`] holds its [`CliqueIndex`]: built and owned by
/// [`ShardedEnumerator::new`], or borrowed from a caller that amortises one
/// index across many enumerations (the snapshot layer).
enum IndexHandle<'g> {
    Owned(CliqueIndex),
    Shared(&'g CliqueIndex),
}

impl<'g> ShardedEnumerator<'g> {
    /// Prepares a sharded enumeration of the `p`-cliques of `graph` with at
    /// most `target_shards` shards, building a private [`CliqueIndex`].
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`; the `p ≤ 2` cases are trivial linear scans with
    /// nothing to shard (use [`for_each_clique_while`]).
    pub fn new(graph: &'g Graph, p: usize, target_shards: usize) -> Self {
        let index = CliqueIndex::build(graph);
        let plan = ShardPlan::balanced(&index.dag, &index.ordering, p, target_shards);
        Self::assemble(graph, p, IndexHandle::Owned(index), plan)
    }

    /// Like [`ShardedEnumerator::new`], but over a prebuilt shared index
    /// (which must have been built from `graph`) — the build-once path of the
    /// snapshot layer.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`.
    pub fn with_index(
        graph: &'g Graph,
        index: &'g CliqueIndex,
        p: usize,
        target_shards: usize,
    ) -> Self {
        let plan = ShardPlan::balanced(&index.dag, &index.ordering, p, target_shards);
        Self::assemble(graph, p, IndexHandle::Shared(index), plan)
    }

    /// Like [`ShardedEnumerator::with_index`], but with a caller-provided
    /// [`ShardPlan`] (which must have been planned over `index` for this `p`)
    /// — for callers that precompute one plan per clique size.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`.
    pub fn from_plan(graph: &'g Graph, index: &'g CliqueIndex, p: usize, plan: ShardPlan) -> Self {
        Self::assemble(graph, p, IndexHandle::Shared(index), plan)
    }

    fn assemble(graph: &'g Graph, p: usize, index: IndexHandle<'g>, plan: ShardPlan) -> Self {
        assert!(p >= 3, "sharded enumeration requires p >= 3 (got {p})");
        let kernel = match &index {
            IndexHandle::Owned(index) => index.resolve_kernel(KernelStrategy::Auto),
            IndexHandle::Shared(index) => index.resolve_kernel(KernelStrategy::Auto),
        };
        ShardedEnumerator {
            graph,
            p,
            index,
            plan,
            kernel,
        }
    }

    /// Re-resolves the enumeration kernel under an explicit strategy
    /// (constructors default to [`KernelStrategy::Auto`]). Per-shard output
    /// is byte-identical across kernels, so the choice never affects the
    /// merged emission order.
    pub fn with_kernel(mut self, strategy: KernelStrategy) -> Self {
        self.kernel = self.index().resolve_kernel(strategy);
        self
    }

    /// The kernel every shard of this enumeration runs.
    pub fn kernel(&self) -> KernelChoice {
        self.kernel
    }

    /// The index backing this enumeration (owned or shared).
    fn index(&self) -> &CliqueIndex {
        match &self.index {
            IndexHandle::Owned(index) => index,
            IndexHandle::Shared(index) => index,
        }
    }

    /// The clique size being enumerated.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of shards in the underlying plan.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The shard plan (for inspection and tests).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Enumerates every `p`-clique rooted in `shard`, in the sequential
    /// visit order, until `visit` declines; returns whether the shard ran to
    /// completion. Allocates one candidate arena per call (amortised over the
    /// whole shard) so concurrent calls on different shards never share
    /// mutable state.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn for_each_in_shard_while(
        &self,
        shard: usize,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        let index = self.index();
        let mut stack: Vec<u32> = Vec::with_capacity(self.p);
        let mut scratch: Vec<u32> = Vec::with_capacity(self.p);
        let roots = &index.ordering.order[self.plan.range(shard)];
        match self.kernel {
            KernelChoice::Trie => trie::TrieKernel::new().enumerate_roots(
                self.graph,
                &index.bitsets,
                &index.dag,
                self.p,
                roots,
                &mut stack,
                &mut scratch,
                &mut visit,
            ),
            KernelChoice::Recursive => {
                let mut arena = index.arena(self.p);
                enumerate_roots(
                    self.graph,
                    &index.bitsets,
                    &index.dag,
                    self.p,
                    roots,
                    &mut arena,
                    &mut stack,
                    &mut scratch,
                    &mut visit,
                )
            }
        }
    }

    /// Like [`ShardedEnumerator::for_each_in_shard_while`] with a visitor
    /// that never declines.
    pub fn for_each_in_shard(&self, shard: usize, mut visit: impl FnMut(&[u32])) {
        self.for_each_in_shard_while(shard, |c| {
            visit(c);
            true
        });
    }
}

/// Shards planned per worker thread by the sharded paths (the engine's
/// dense enumeration, the bench's pinned counts): oversubscribing lets fast
/// workers steal the tail instead of idling behind one slow shard, while the
/// per-shard overhead (one arena + one buffer) stays negligible.
pub const SHARDS_PER_THREAD: usize = 8;

/// Reusable state for repeated [`cliques_containing_edge`]-style queries
/// against one graph: the adjacency bitsets, the candidate arena, the vertex
/// stack and the sort scratch are built once and shared across every queried
/// edge. This is the hot path of the in-cluster listing, which asks for the
/// cliques of each goal edge of a cluster in turn.
pub struct EdgeCliqueEnumerator<'g> {
    graph: &'g Graph,
    p: usize,
    bitsets: NeighborBitsets,
    arena: Vec<Vec<u32>>,
    stack: Vec<u32>,
    scratch: Vec<u32>,
    strategy: KernelStrategy,
    /// Trie-kernel state; its node caches the materialised neighbourhood of
    /// [`EdgeCliqueEnumerator::cached_root`] across queries.
    kernel: trie::TrieKernel,
    /// Endpoint whose induced neighbourhood the kernel node currently holds.
    cached_root: Option<u32>,
    /// Lower endpoint of the previous query — `Auto`'s amortisation signal:
    /// a materialisation is paid for only once a second consecutive query
    /// shares the endpoint, so isolated queries never pay the `O(d²)` build.
    last_root: Option<u32>,
}

impl<'g> EdgeCliqueEnumerator<'g> {
    /// Prepares an enumerator for `p`-cliques of `graph` under
    /// [`KernelStrategy::Auto`]. Builds the high-degree adjacency bitsets
    /// once; worth it from a handful of edge queries onward.
    pub fn new(graph: &'g Graph, p: usize) -> Self {
        Self::with_strategy(graph, p, KernelStrategy::Auto)
    }

    /// Like [`EdgeCliqueEnumerator::new`] with an explicit
    /// [`KernelStrategy`]. The strategy governs only whether queries sharing
    /// a lower endpoint reuse one induced-subgraph materialisation of that
    /// endpoint's neighbourhood (the prefix `{a} ⊂ {a, b}` of every such
    /// query): `Trie` materialises on first use, `Auto` from the second
    /// consecutive shared-endpoint query, `Recursive` never. Output is
    /// byte-identical across strategies.
    pub fn with_strategy(graph: &'g Graph, p: usize, strategy: KernelStrategy) -> Self {
        EdgeCliqueEnumerator {
            graph,
            p,
            bitsets: NeighborBitsets::build(graph, bitset_threshold(graph)),
            arena: (0..p.saturating_sub(1)).map(|_| Vec::new()).collect(),
            stack: Vec::with_capacity(p),
            scratch: Vec::with_capacity(p),
            strategy,
            kernel: trie::TrieKernel::new(),
            cached_root: None,
            last_root: None,
        }
    }

    /// Writes every `p`-clique containing the edge `{a, b}` into `out`
    /// (cleared first), sorted, each exactly once — the same output as
    /// [`cliques_containing_edge`], without the per-call setup.
    pub fn cliques_containing_edge_into(&mut self, a: u32, b: u32, out: &mut Vec<Clique>) {
        out.clear();
        self.for_each_containing_edge_while(a, b, |c| {
            out.push(c.to_vec());
            true
        });
        out.sort_unstable();
        out.dedup();
    }

    /// Streams every `p`-clique containing the edge `{a, b}` (canonical
    /// sorted form, ascending canonical order, each exactly once) until
    /// `visit` declines; returns whether the query ran to completion. An
    /// absent edge visits nothing and completes.
    ///
    /// This is the streaming building block behind the saturation-aware
    /// in-cluster listing: declining unwinds the search immediately, and the
    /// enumerator's scratch state (candidate arena, vertex stack, sort
    /// scratch) is **reset at the start of every query**, so a query aborted
    /// mid-recursion leaves the enumerator ready for the next goal edge. The
    /// reset is deliberate: an aborted search skips the unwinding that would
    /// otherwise pop the seed vertices, so relying on balanced pushes/pops
    /// would poison the next query's stack (regression-tested in
    /// `edge_enumerator_resumes_cleanly_after_an_aborted_query`).
    pub fn for_each_containing_edge_while(
        &mut self,
        a: u32,
        b: u32,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if self.p < 2 || !self.graph.has_edge(a, b) {
            return true;
        }
        if self.p == 2 {
            return visit(&[a.min(b), a.max(b)]);
        }
        let root = a.min(b);
        let other = a.max(b);
        let reuse = match self.strategy {
            KernelStrategy::Recursive => false,
            KernelStrategy::Trie => true,
            // Amortisation rule: only materialise once a second consecutive
            // query shares the endpoint (or the node is already cached).
            KernelStrategy::Auto => self.cached_root == Some(root) || self.last_root == Some(root),
        } && trie::node_fits_budget(self.graph.degree(root));
        self.last_root = Some(root);
        let EdgeCliqueEnumerator {
            graph,
            p,
            bitsets,
            arena,
            stack,
            scratch,
            kernel,
            cached_root,
            ..
        } = self;
        // Reset every piece of per-query scratch state up front — a previous
        // query aborted by its visitor leaves its seed vertices on the stack
        // and the last partial clique in the sort scratch. The cached trie
        // node is *not* scratch: it is immutable during a query, so an abort
        // cannot poison it.
        stack.clear();
        scratch.clear();
        stack.push(root);
        stack.push(other);
        if reuse {
            if *cached_root != Some(root) {
                kernel
                    .node_mut()
                    .materialize(graph, bitsets, graph.neighbors(root));
                *cached_root = Some(root);
            }
            // `other` is a neighbour of `root` by the edge check above, so it
            // has a local id; its row inside N(root) is exactly the common
            // neighbourhood of the edge — the initial candidate set.
            let pivot = kernel
                .node()
                .local_index(other)
                .expect("edge endpoint must appear in its neighbour's materialised node");
            return kernel.descend_from_row(*p, pivot, stack, scratch, &mut visit);
        }
        graph.common_neighbors_into(a, b, &mut arena[0]);
        extend_clique(graph, bitsets, *p, arena, stack, scratch, &mut visit)
    }
}

/// Lists every `p`-clique that contains the given edge `{a, b}`.
///
/// Returns an empty list if the edge is absent. One-shot convenience over
/// [`EdgeCliqueEnumerator`]; callers querying many edges of the same graph
/// should hold an enumerator instead and amortise its setup.
pub fn cliques_containing_edge(graph: &Graph, p: usize, a: u32, b: u32) -> Vec<Clique> {
    if p < 2 || !graph.has_edge(a, b) {
        return Vec::new();
    }
    if p == 2 {
        return vec![vec![a.min(b), a.max(b)]];
    }
    // One-shot path: skip the bitset table (its build cost would dominate a
    // single query) and rely on the merges.
    let bitsets = NeighborBitsets::none(graph.num_vertices());
    let mut arena: Vec<Vec<u32>> = (0..p - 1).map(|_| Vec::new()).collect();
    graph.common_neighbors_into(a, b, &mut arena[0]);
    let capacity = arena[0].len();
    for level in arena.iter_mut().skip(1) {
        level.reserve(capacity);
    }
    let mut out = Vec::new();
    let mut stack = vec![a.min(b), a.max(b)];
    let mut scratch = Vec::with_capacity(p);
    extend_clique(
        graph,
        &bitsets,
        p,
        &mut arena,
        &mut stack,
        &mut scratch,
        &mut |c: &[u32]| {
            out.push(c.to_vec());
            true
        },
    );
    out.sort_unstable();
    out.dedup();
    out
}

/// Verifies that `candidate` is a clique of `graph` (all pairs adjacent,
/// vertices distinct).
pub fn is_clique(graph: &Graph, candidate: &[u32]) -> bool {
    for (i, &u) in candidate.iter().enumerate() {
        for &v in &candidate[i + 1..] {
            if u == v || !graph.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut r = 1usize;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn complete_graph_has_binomial_many_cliques() {
        let g = gen::complete_graph(8);
        for p in 0..=9 {
            assert_eq!(count_cliques(&g, p), binomial(8, p), "p = {p}");
        }
    }

    #[test]
    fn small_p_special_cases() {
        let g = gen::path_graph(4);
        assert_eq!(list_cliques(&g, 0), vec![Vec::<u32>::new()]);
        assert_eq!(list_cliques(&g, 1).len(), 4);
        assert_eq!(list_cliques(&g, 2).len(), 3);
        assert_eq!(list_cliques(&g, 3).len(), 0);
    }

    #[test]
    fn listed_cliques_are_cliques_and_unique() {
        let g = gen::erdos_renyi(60, 0.25, 9);
        let k4s = list_cliques(&g, 4);
        for c in &k4s {
            assert_eq!(c.len(), 4);
            assert!(is_clique(&g, c));
            assert!(c.windows(2).all(|w| w[0] < w[1]), "not sorted: {c:?}");
        }
        let mut dedup = k4s.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), k4s.len());
    }

    #[test]
    fn bipartite_graphs_have_no_triangles() {
        let g = gen::complete_bipartite(10, 10);
        assert_eq!(count_cliques(&g, 3), 0);
        assert_eq!(count_cliques(&g, 4), 0);
    }

    #[test]
    fn cliques_containing_edge_matches_filtered_listing() {
        let g = gen::erdos_renyi(40, 0.3, 4);
        let all = list_cliques(&g, 4);
        if let Some((a, b)) = g.edges().next() {
            let containing = cliques_containing_edge(&g, 4, a, b);
            let expected: Vec<Clique> = all
                .iter()
                .filter(|c| c.contains(&a) && c.contains(&b))
                .cloned()
                .collect();
            assert_eq!(containing, expected);
        }
        assert!(cliques_containing_edge(&g, 4, 0, 0).is_empty());
    }

    #[test]
    fn edge_enumerator_matches_the_one_shot_function() {
        let g = gen::erdos_renyi(50, 0.3, 8);
        for p in [3usize, 4, 5] {
            let mut enumerator = EdgeCliqueEnumerator::new(&g, p);
            let mut out = Vec::new();
            for (a, b) in g.edges() {
                enumerator.cliques_containing_edge_into(a, b, &mut out);
                assert_eq!(out, cliques_containing_edge(&g, p, a, b), "p={p} {a}-{b}");
            }
            // Absent edges yield nothing.
            enumerator.cliques_containing_edge_into(0, 0, &mut out);
            assert!(out.is_empty());
        }
        let mut pairs = EdgeCliqueEnumerator::new(&g, 2);
        let mut out = Vec::new();
        let first = g.edges().next();
        if let Some((a, b)) = first {
            pairs.cliques_containing_edge_into(b, a, &mut out);
            assert_eq!(out, vec![vec![a, b]]);
        }
    }

    #[test]
    fn cliques_containing_edge_handles_p_2() {
        let g = gen::path_graph(3);
        assert_eq!(cliques_containing_edge(&g, 2, 1, 0), vec![vec![0, 1]]);
        assert!(cliques_containing_edge(&g, 2, 0, 2).is_empty());
    }

    #[test]
    fn is_clique_detects_non_cliques() {
        let g = gen::path_graph(4);
        assert!(is_clique(&g, &[0, 1]));
        assert!(!is_clique(&g, &[0, 2]));
        assert!(!is_clique(&g, &[0, 0]));
        assert!(is_clique(&g, &[]));
        assert!(is_clique(&g, &[3]));
    }

    #[test]
    fn planted_cliques_are_found() {
        let (g, planted) = gen::planted_cliques(80, 0.01, 2, 6, 17);
        let k6s = list_cliques(&g, 6);
        for c in &planted {
            assert!(k6s.contains(&c.vertices), "planted clique missing");
        }
    }

    #[test]
    fn while_variant_stops_immediately_when_declined() {
        let g = gen::complete_graph(30);
        for p in [1usize, 2, 4] {
            let mut visited = Vec::new();
            let completed = for_each_clique_while(&g, p, |c| {
                visited.push(c.to_vec());
                visited.len() < 3
            });
            assert!(!completed, "p = {p}: enumeration must report the abort");
            assert_eq!(visited.len(), 3, "p = {p}: exactly 3 visits before stop");
        }
        // A callback that never declines sees everything and reports
        // completion.
        let mut count = 0usize;
        assert!(for_each_clique_while(&g, 3, |_| {
            count += 1;
            true
        }));
        assert_eq!(count, count_cliques(&g, 3));
    }

    #[test]
    fn triangle_count_matches_naive_on_random_graph() {
        let g = gen::erdos_renyi(50, 0.2, 21);
        let mut naive = 0;
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                if !g.has_edge(u, v) {
                    continue;
                }
                for w in (v + 1)..50u32 {
                    if g.has_edge(u, w) && g.has_edge(v, w) {
                        naive += 1;
                    }
                }
            }
        }
        assert_eq!(count_cliques(&g, 3), naive);
    }

    #[test]
    fn bitset_and_merge_paths_agree() {
        // Two components on either side of the bitset degree floor: a dense
        // core whose vertices all get bitset rows, and a disjoint K_7 whose
        // degree-6 vertices stay below MIN_BITSET_DEGREE_THRESHOLD and are
        // row-less candidates of each other. The pinned recursive kernel
        // therefore intersects through both paths of `intersect_candidates`.
        const CORE: u32 = 24;
        let k7 = CORE..CORE + 7;
        let mut edges = Vec::new();
        for u in 0..CORE {
            for v in (u + 1)..CORE {
                if (u + v) % 7 != 0 {
                    edges.push((u, v));
                }
            }
        }
        for u in k7.clone() {
            for v in (u + 1)..k7.end {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(k7.end as usize, &edges).unwrap();
        let index = CliqueIndex::build(&g);
        assert!((0..CORE).all(|v| index.bitset_row(v).is_some()));
        assert!(k7
            .clone()
            .all(|v| g.degree(v) < MIN_BITSET_DEGREE_THRESHOLD && index.bitset_row(v).is_none()));
        for p in [3usize, 4, 5] {
            let mut listed = Vec::new();
            index.for_each_clique_while_with(&g, p, KernelStrategy::Recursive, |c| {
                listed.push(c.to_vec());
                true
            });
            listed.sort_unstable();
            // Reference: merge-only enumeration via the containing-edge API
            // (which never builds bitsets), unioned over all edges.
            let mut reference: Vec<Clique> = Vec::new();
            for (a, b) in g.edges() {
                reference.extend(cliques_containing_edge(&g, p, a, b));
            }
            reference.sort_unstable();
            reference.dedup();
            // Every clique contains at least one edge for p >= 2, but is
            // found once per contained edge — the dedup above fixes that.
            assert_eq!(listed, reference, "p = {p}");
        }
    }

    #[test]
    fn shard_plan_is_a_contiguous_partition_of_the_roots() {
        for (n, prob, seed) in [(0usize, 0.0, 0u64), (1, 0.0, 0), (50, 0.2, 3), (90, 0.4, 7)] {
            let g = gen::erdos_renyi(n, prob, seed);
            let ordering = degeneracy_ordering(&g);
            let dag = OrientedDag::from_ordering(&g, &ordering);
            for target in [1usize, 2, 3, 7, 64, 1000] {
                let plan = ShardPlan::balanced(&dag, &ordering, 4, target);
                if n == 0 {
                    assert_eq!(plan.num_shards(), 0);
                    continue;
                }
                assert!(plan.num_shards() >= 1);
                assert!(
                    plan.num_shards() <= target.max(1).min(n),
                    "n={n} target={target}"
                );
                let mut covered = 0usize;
                for (i, range) in plan.ranges().enumerate() {
                    assert_eq!(range.start, covered, "shard {i} not contiguous");
                    assert!(range.end > range.start, "shard {i} empty");
                    covered = range.end;
                }
                assert_eq!(covered, n, "shards must cover every root");
            }
        }
    }

    #[test]
    fn shard_concatenation_reproduces_the_sequential_order() {
        let g = gen::erdos_renyi(70, 0.3, 11);
        for p in [3usize, 4, 5] {
            let mut sequential = Vec::new();
            for_each_clique(&g, p, |c| sequential.push(c.to_vec()));
            for target in [1usize, 2, 5, 16] {
                let enumerator = ShardedEnumerator::new(&g, p, target);
                let mut merged = Vec::new();
                for shard in 0..enumerator.num_shards() {
                    enumerator.for_each_in_shard(shard, |c| merged.push(c.to_vec()));
                }
                assert_eq!(merged, sequential, "p={p} target={target}");
            }
        }
    }

    #[test]
    fn shard_enumeration_stops_when_declined() {
        let g = gen::complete_graph(20);
        let enumerator = ShardedEnumerator::new(&g, 3, 4);
        let mut seen = 0usize;
        let completed = enumerator.for_each_in_shard_while(0, |_| {
            seen += 1;
            seen < 2
        });
        assert!(!completed);
        assert_eq!(seen, 2);
    }

    #[test]
    fn containing_edge_stream_is_sorted_and_matches_the_buffered_query() {
        let g = gen::erdos_renyi(45, 0.35, 6);
        for p in [3usize, 4, 5] {
            let mut enumerator = EdgeCliqueEnumerator::new(&g, p);
            let mut buffered = Vec::new();
            for (a, b) in g.edges() {
                let mut streamed: Vec<Clique> = Vec::new();
                assert!(enumerator.for_each_containing_edge_while(a, b, |c| {
                    streamed.push(c.to_vec());
                    true
                }));
                enumerator.cliques_containing_edge_into(a, b, &mut buffered);
                // The stream arrives in ascending canonical order, so it must
                // equal the sorted+deduped buffered output element for
                // element.
                assert_eq!(streamed, buffered, "p={p} edge {a}-{b}");
                assert!(streamed.windows(2).all(|w| w[0] < w[1]), "p={p} not sorted");
            }
        }
    }

    #[test]
    fn edge_enumerator_resumes_cleanly_after_an_aborted_query() {
        let g = gen::erdos_renyi(50, 0.4, 9);
        for p in [3usize, 4] {
            let mut enumerator = EdgeCliqueEnumerator::new(&g, p);
            let edges: Vec<(u32, u32)> = g.edges().collect();
            // An edge with at least two containing cliques, so aborting after
            // the first visit leaves the recursion genuinely mid-flight.
            let (a, b) = edges
                .iter()
                .copied()
                .find(|&(a, b)| cliques_containing_edge(&g, p, a, b).len() >= 2)
                .expect("dense test graph has a multi-clique edge");
            let mut visits = 0usize;
            let completed = enumerator.for_each_containing_edge_while(a, b, |_| {
                visits += 1;
                false
            });
            assert!(!completed, "p={p}: abort must be reported");
            assert_eq!(visits, 1, "p={p}: exactly one visit before the abort");
            // Every later query must be unaffected by the aborted one: the
            // scratch state (stack, arena, sort scratch) is reset per query.
            let mut out = Vec::new();
            for &(c, d) in &edges {
                enumerator.cliques_containing_edge_into(c, d, &mut out);
                assert_eq!(
                    out,
                    cliques_containing_edge(&g, p, c, d),
                    "p={p}: query {c}-{d} after an aborted query diverged"
                );
            }
        }
    }

    #[test]
    fn clique_index_is_shared_across_query_kinds() {
        let g = gen::erdos_renyi(55, 0.3, 13);
        let index = CliqueIndex::build(&g);
        for p in [3usize, 4, 5] {
            // Full enumeration matches the one-shot path, order included.
            let mut via_index = Vec::new();
            assert!(index.for_each_clique_while(&g, p, |c| {
                via_index.push(c.to_vec());
                true
            }));
            let mut one_shot = Vec::new();
            for_each_clique(&g, p, |c| one_shot.push(c.to_vec()));
            assert_eq!(via_index, one_shot, "p={p}");
            // Per-vertex queries match the filtered full listing.
            let all = list_cliques(&g, p);
            for v in [0u32, 7, 54] {
                let mut through_v = Vec::new();
                index.for_each_containing_vertex_while(&g, p, v, |c| {
                    through_v.push(c.to_vec());
                    true
                });
                through_v.sort_unstable();
                let expected: Vec<Clique> =
                    all.iter().filter(|c| c.contains(&v)).cloned().collect();
                assert_eq!(through_v, expected, "p={p} v={v}");
            }
            // Per-edge queries match the one-shot function.
            for (a, b) in g.edges().take(25) {
                let mut through_e = Vec::new();
                index.for_each_containing_edge_while(&g, p, a, b, |c| {
                    through_e.push(c.to_vec());
                    true
                });
                assert_eq!(
                    through_e,
                    cliques_containing_edge(&g, p, a, b),
                    "p={p} {a}-{b}"
                );
            }
        }
        // Out-of-range vertices and absent edges visit nothing and complete.
        assert!(index.for_each_containing_vertex_while(&g, 3, 999, |_| false));
        assert!(index.for_each_containing_edge_while(&g, 3, 0, 0, |_| false));
        assert!(index.degeneracy() >= 3);
    }

    #[test]
    fn shared_index_enumerators_reproduce_the_sequential_order() {
        let g = gen::erdos_renyi(60, 0.3, 19);
        let index = CliqueIndex::build(&g);
        for p in [3usize, 4] {
            let mut sequential = Vec::new();
            for_each_clique(&g, p, |c| sequential.push(c.to_vec()));
            for target in [2usize, 7] {
                let shared = ShardedEnumerator::with_index(&g, &index, p, target);
                let mut merged = Vec::new();
                for shard in 0..shared.num_shards() {
                    shared.for_each_in_shard(shard, |c| merged.push(c.to_vec()));
                }
                assert_eq!(merged, sequential, "with_index p={p} target={target}");
                let planned = ShardedEnumerator::from_plan(&g, &index, p, shared.plan().clone());
                let mut replanned = Vec::new();
                for shard in 0..planned.num_shards() {
                    planned.for_each_in_shard(shard, |c| replanned.push(c.to_vec()));
                }
                assert_eq!(replanned, sequential, "from_plan p={p} target={target}");
            }
        }
    }

    #[test]
    fn index_small_p_and_early_stop_behave_like_the_one_shot_path() {
        let g = gen::path_graph(5);
        let index = CliqueIndex::build(&g);
        for p in [0usize, 1, 2] {
            let mut via_index = Vec::new();
            index.for_each_clique_while(&g, p, |c| {
                via_index.push(c.to_vec());
                true
            });
            via_index.sort_unstable();
            assert_eq!(via_index, list_cliques(&g, p), "p={p}");
        }
        let mut through_v = Vec::new();
        index.for_each_containing_vertex_while(&g, 2, 1, |c| {
            through_v.push(c.to_vec());
            true
        });
        assert_eq!(through_v, vec![vec![0, 1], vec![1, 2]]);
        assert!(index.for_each_containing_vertex_while(&g, 0, 1, |_| false));
        let mut single = Vec::new();
        index.for_each_containing_vertex_while(&g, 1, 3, |c| {
            single.push(c.to_vec());
            true
        });
        assert_eq!(single, vec![vec![3]]);
        // Early stops propagate through every index-backed query kind.
        let k = gen::complete_graph(10);
        let ki = CliqueIndex::build(&k);
        let mut seen = 0usize;
        assert!(!ki.for_each_clique_while(&k, 3, |_| {
            seen += 1;
            seen < 4
        }));
        assert_eq!(seen, 4);
        let mut ve = 0usize;
        assert!(!ki.for_each_containing_vertex_while(&k, 3, 0, |_| {
            ve += 1;
            false
        }));
        let mut ee = 0usize;
        assert!(!ki.for_each_containing_edge_while(&k, 3, 0, 1, |_| {
            ee += 1;
            false
        }));
        assert_eq!((ve, ee), (1, 1));
    }

    #[test]
    fn emission_order_is_reproducible() {
        let g = gen::erdos_renyi(40, 0.35, 2);
        let mut first = Vec::new();
        for_each_clique(&g, 4, |c| first.push(c.to_vec()));
        let mut second = Vec::new();
        for_each_clique(&g, 4, |c| second.push(c.to_vec()));
        assert_eq!(first, second);
    }

    /// Applies a batch and returns the mutated graph plus the touched mask
    /// the incremental index build expects.
    fn mutate(g: &Graph, inserts: &[(u32, u32)], deletes: &[(u32, u32)]) -> (Graph, Vec<bool>) {
        let batch = crate::churn::EdgeBatch::new(inserts, deletes).unwrap();
        let (next, applied) = g.apply_edge_batch(&batch).unwrap();
        let mut touched = vec![false; g.num_vertices()];
        for &(u, v) in applied.inserted.iter().chain(&applied.deleted) {
            touched[u as usize] = true;
            touched[v as usize] = true;
        }
        (next, touched)
    }

    #[test]
    fn incremental_index_equals_scratch_build() {
        for seed in 0..4u64 {
            let g = gen::erdos_renyi(60, 0.25, seed);
            let index = CliqueIndex::build(&g);
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let deletes: Vec<(u32, u32)> = edges.iter().copied().step_by(7).take(10).collect();
            let inserts: Vec<(u32, u32)> = gen::erdos_renyi(60, 0.05, seed + 50)
                .edges()
                .filter(|&(u, v)| !g.has_edge(u, v))
                .take(10)
                .collect();
            let (next, touched) = mutate(&g, &inserts, &deletes);
            let (patched, stats) = CliqueIndex::build_incremental(&next, &index, &touched);
            assert_eq!(patched, CliqueIndex::build(&next), "seed {seed}");
            assert_eq!(
                stats.bitset_rows_reused + stats.bitset_rows_rebuilt,
                patched
                    .bitsets
                    .row_of
                    .iter()
                    .filter(|&&r| r != u32::MAX)
                    .count(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn incremental_index_patches_rows_straddling_the_bitset_threshold() {
        // A star centre sits far above the threshold; pull its degree below
        // it via deletions and push a light vertex above it via insertions —
        // both sides of the membership change must match a scratch build.
        // On a graph this small the adaptive threshold always bottoms out at
        // the floor, so the floor is the membership bar.
        let threshold = MIN_BITSET_DEGREE_THRESHOLD;
        let n = threshold * 3;
        let star = gen::star_graph(n);
        assert_eq!(bitset_threshold(&star), threshold);
        let index = CliqueIndex::build(&star);
        assert!(index.bitset_row(0).is_some());
        // Delete enough spokes to drop the centre below the threshold, and
        // ring a previously-light vertex with enough new edges to cross it.
        let deletes: Vec<(u32, u32)> = (1..=(n - threshold + 1) as u32).map(|v| (0, v)).collect();
        let hub = (n - 1) as u32;
        let inserts: Vec<(u32, u32)> = (1..=threshold as u32).map(|v| (v, hub)).collect();
        let (next, touched) = mutate(&star, &inserts, &deletes);
        let (patched, stats) = CliqueIndex::build_incremental(&next, &index, &touched);
        let scratch = CliqueIndex::build(&next);
        assert_eq!(patched, scratch);
        assert!(patched.bitset_row(0).is_none());
        assert!(patched.bitset_row(hub).is_some());
        // Every surviving row here was touched, so nothing could be reused.
        assert_eq!(stats.bitset_rows_reused, 0);
        assert!(stats.bitset_rows_rebuilt >= 1);
    }

    #[test]
    fn explicit_kernel_strategies_agree_everywhere() {
        // Trie and recursive kernels must emit identical bytes through every
        // entry point: full listings, early-stopped prefixes, shards and
        // edge-query streams. (The cross-crate differential battery widens
        // this to engine reports; this test pins the graphcore layer.)
        let workloads = [
            gen::erdos_renyi(60, 0.25, 7),
            gen::multipartite(48, 6, 1.0, 3),
            gen::rmat(7, 6, (0.57, 0.19, 0.19, 0.05), 11),
        ];
        for (w, g) in workloads.iter().enumerate() {
            let index = CliqueIndex::build(g);
            for p in [3usize, 4] {
                let mut recursive = Vec::new();
                assert!(
                    index.for_each_clique_while_with(g, p, KernelStrategy::Recursive, |c| {
                        recursive.push(c.to_vec());
                        true
                    })
                );
                let mut via_trie = Vec::new();
                assert!(
                    index.for_each_clique_while_with(g, p, KernelStrategy::Trie, |c| {
                        via_trie.push(c.to_vec());
                        true
                    })
                );
                assert_eq!(via_trie, recursive, "workload {w} p={p}");
                // Early-stop prefixes agree (and both report the abort).
                let limit = (recursive.len() / 2).max(1);
                for strategy in [KernelStrategy::Recursive, KernelStrategy::Trie] {
                    let mut prefix = Vec::new();
                    let completed = index.for_each_clique_while_with(g, p, strategy, |c| {
                        prefix.push(c.to_vec());
                        prefix.len() < limit
                    });
                    if recursive.len() > limit {
                        assert!(!completed, "workload {w} p={p} {strategy}");
                        assert_eq!(prefix, recursive[..limit], "workload {w} p={p} {strategy}");
                    }
                }
                // Shard-by-shard output agrees kernel for kernel.
                for strategy in [KernelStrategy::Recursive, KernelStrategy::Trie] {
                    let sharded =
                        ShardedEnumerator::with_index(g, &index, p, 6).with_kernel(strategy);
                    let mut merged = Vec::new();
                    for shard in 0..sharded.num_shards() {
                        sharded.for_each_in_shard(shard, |c| merged.push(c.to_vec()));
                    }
                    assert_eq!(merged, recursive, "workload {w} p={p} {strategy}");
                }
                // Edge-query streams agree across strategies, including after
                // aborted queries and across shared-endpoint runs (the edges
                // iterator groups edges by lower endpoint, which is exactly
                // the prefix-reuse pattern).
                let mut reference =
                    EdgeCliqueEnumerator::with_strategy(g, p, KernelStrategy::Recursive);
                for strategy in [KernelStrategy::Trie, KernelStrategy::Auto] {
                    let mut reused = EdgeCliqueEnumerator::with_strategy(g, p, strategy);
                    for (a, b) in g.edges() {
                        let mut expected = Vec::new();
                        reference.for_each_containing_edge_while(a, b, |c| {
                            expected.push(c.to_vec());
                            true
                        });
                        let mut streamed = Vec::new();
                        assert!(reused.for_each_containing_edge_while(a, b, |c| {
                            streamed.push(c.to_vec());
                            true
                        }));
                        assert_eq!(streamed, expected, "workload {w} p={p} {strategy} {a}-{b}");
                        // Aborting mid-stream must not poison the cache.
                        if expected.len() > 1 {
                            let mut first = Vec::new();
                            assert!(!reused.for_each_containing_edge_while(a, b, |c| {
                                first.push(c.to_vec());
                                false
                            }));
                            assert_eq!(first[..], expected[..1]);
                            let mut again = Vec::new();
                            reused.for_each_containing_edge_while(a, b, |c| {
                                again.push(c.to_vec());
                                true
                            });
                            assert_eq!(again, expected, "workload {w} p={p} retry {a}-{b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn auto_kernel_resolution_is_a_pure_degeneracy_rule() {
        // Sparse: degeneracy under the bar resolves to the recursive kernel.
        let sparse = gen::erdos_renyi(200, 0.02, 1);
        let sparse_index = CliqueIndex::build(&sparse);
        assert!(sparse_index.degeneracy() < AUTO_TRIE_DEGENERACY);
        assert_eq!(
            sparse_index.resolve_kernel(KernelStrategy::Auto),
            KernelChoice::Recursive
        );
        // Dense: a 6-partite Turán-style graph clears the bar.
        let dense = gen::multipartite(60, 6, 1.0, 2);
        let dense_index = CliqueIndex::build(&dense);
        assert!(dense_index.degeneracy() >= AUTO_TRIE_DEGENERACY);
        assert_eq!(
            dense_index.resolve_kernel(KernelStrategy::Auto),
            KernelChoice::Trie
        );
        // Explicit strategies are honoured on both graphs, and resolution is
        // stable across repeated calls (pure function of the built index).
        for index in [&sparse_index, &dense_index] {
            assert_eq!(
                index.resolve_kernel(KernelStrategy::Recursive),
                KernelChoice::Recursive
            );
            assert_eq!(
                index.resolve_kernel(KernelStrategy::Trie),
                KernelChoice::Trie
            );
            assert_eq!(
                index.resolve_kernel(KernelStrategy::Auto),
                index.resolve_kernel(KernelStrategy::Auto)
            );
        }
        // The sharded enumerator picks up the same resolution.
        let sharded = ShardedEnumerator::with_index(&dense, &dense_index, 3, 4);
        assert_eq!(sharded.kernel(), KernelChoice::Trie);
        assert_eq!(
            sharded.with_kernel(KernelStrategy::Recursive).kernel(),
            KernelChoice::Recursive
        );
    }

    #[test]
    fn triangle_shard_plans_balance_the_measured_work_better() {
        // Satellite fix: the old pure-quadratic root estimate rounds the long
        // sparse tail of a heavy-tailed (rmat) ordering to nothing at p = 3,
        // packing it into oversized shards. Compare plans built from the old
        // and new weights over the same roots and assert the new plan spreads
        // both the roots and the measured enumeration work more evenly.
        let g = gen::rmat(10, 8, (0.57, 0.19, 0.19, 0.05), 42);
        let index = CliqueIndex::build(&g);
        let (dag, ordering) = (index.dag(), index.ordering());
        let old_weights: Vec<u64> = ordering
            .order
            .iter()
            .map(|&v| {
                let d = dag.out_degree(v) as u64;
                if (d + 1) < 3 {
                    1
                } else {
                    1 + d * d
                }
            })
            .collect();
        let target = 16usize;
        let old_plan = ShardPlan {
            ranges: crate::ordered_merge::balanced_ranges(&old_weights, target),
        };
        let new_plan = ShardPlan::balanced(dag, ordering, 3, target);
        assert_eq!(old_plan.num_shards(), target);
        assert_eq!(new_plan.num_shards(), target);
        // Measured work per shard: per-root bookkeeping + candidate-copy
        // cost, plus the triangles the shard actually emits.
        let measure = |plan: &ShardPlan| -> Vec<f64> {
            let sharded = ShardedEnumerator::from_plan(&g, &index, 3, plan.clone());
            (0..sharded.num_shards())
                .map(|shard| {
                    let mut visits = 0u64;
                    sharded.for_each_in_shard(shard, |_| visits += 1);
                    let bookkeeping: u64 = ordering.order[plan.range(shard)]
                        .iter()
                        .map(|&v| 8 + dag.out_degree(v) as u64)
                        .sum();
                    (visits + bookkeeping) as f64
                })
                .collect()
        };
        let variance = |xs: &[f64]| -> f64 {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
        };
        let (old_work, new_work) = (measure(&old_plan), measure(&new_plan));
        // Same total work either way — only the boundaries move.
        let total: f64 = old_work.iter().sum();
        assert!((total - new_work.iter().sum::<f64>()).abs() < 1e-6);
        assert!(
            variance(&new_work) < variance(&old_work),
            "new plan must spread measured work more evenly: old {:?} new {:?}",
            variance(&old_work),
            variance(&new_work)
        );
        let sizes =
            |plan: &ShardPlan| -> Vec<f64> { plan.ranges().map(|r| r.len() as f64).collect() };
        assert!(
            variance(&sizes(&new_plan)) < variance(&sizes(&old_plan)),
            "new plan must also spread the roots more evenly"
        );
    }

    #[test]
    fn incremental_index_reuses_untouched_heavy_rows() {
        // Two disjoint dense blobs; churn only the second one. The first
        // blob's heavy rows must be reused verbatim.
        let block = BITSET_DEGREE_THRESHOLD + 8;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for base in [0u32, block as u32] {
            for i in 0..block as u32 {
                for j in (i + 1)..block as u32 {
                    edges.push((base + i, base + j));
                }
            }
        }
        let g = Graph::from_edges(2 * block, &edges).unwrap();
        let index = CliqueIndex::build(&g);
        let b = block as u32;
        let (next, touched) = mutate(&g, &[], &[(b, b + 1), (b + 2, b + 3)]);
        let (patched, stats) = CliqueIndex::build_incremental(&next, &index, &touched);
        assert_eq!(patched, CliqueIndex::build(&next));
        assert!(stats.bitset_rows_reused >= block - 4, "{stats:?}");
        assert!(stats.bitset_rows_rebuilt >= 2, "{stats:?}");
    }
}
