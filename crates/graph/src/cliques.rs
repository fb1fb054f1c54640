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
//! oriented DAG, the adjacency bitsets and the enumeration kernel (the
//! recursive search here or the induced-subgraph trie of [`trie`], picked
//! once per graph, see [`CliqueIndex::kernel`]) — lives in [`CliqueIndex`], an
//! owned, `Sync` artifact decoupled from any particular traversal. The
//! one-shot entry points build a private index per call; callers that answer
//! many queries against the same graph (the snapshot layer in the `query`
//! crate, the sharded engine path in `cliquelist`) build the index once and
//! share it across concurrent full, per-vertex and per-edge enumerations by
//! `&self` (see `DESIGN.md` §11).

use crate::orientation::{degeneracy_dag, DegeneracyOrdering, OrientedDag};
use crate::{Clique, Graph};

#[path = "cliques_trie.rs"]
pub mod trie;

pub use trie::{KernelChoice, AUTO_TRIE_DEGENERACY, TRIE_NODE_WORD_BUDGET};

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
/// the graph's degree sequence, so equal graphs get equal tables.
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
/// degeneracy ordering, its [`OrientedDag`] of later neighbours, the
/// high-degree adjacency bitsets and the enumeration kernel picked for the
/// graph, all owned and immutable.
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
/// table, out-degree bound, kernel — which is what lets the churn differential
/// battery assert that the index under a derived snapshot is structurally
/// identical to one built from the independently mutated edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueIndex {
    ordering: DegeneracyOrdering,
    dag: OrientedDag,
    bitsets: NeighborBitsets,
    max_out: usize,
    kernel: KernelChoice,
}

impl CliqueIndex {
    /// Builds the index of `graph`: degeneracy ordering, oriented DAG and
    /// adjacency bitsets, in `O(n + m)` time plus the bounded bitset table.
    /// One peel yields both the ordering and the DAG (it writes each
    /// vertex's row of later neighbours as it peels the vertex). The
    /// enumeration kernel is picked here, once, from the degeneracy and the
    /// largest candidate set (the rule is on [`KernelChoice`]).
    pub fn build(graph: &Graph) -> CliqueIndex {
        let (ordering, dag) = degeneracy_dag(graph);
        let bitsets = NeighborBitsets::build(graph, bitset_threshold(graph));
        let max_out = dag.max_out_degree();
        let kernel = KernelChoice::for_graph(ordering.degeneracy, max_out);
        CliqueIndex {
            ordering,
            dag,
            bitsets,
            max_out,
            kernel,
        }
    }

    /// The kernel this index picked at build time. Every root-ordered
    /// enumeration and count over the index runs it: full listings, shards,
    /// and the count-only descents.
    pub fn kernel(&self) -> KernelChoice {
        self.kernel
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

    /// Whether the indexed graph can hold a `p`-clique at all. The first
    /// vertex of a `K_p` in the degeneracy ordering has the other `p - 1` as
    /// later neighbours, so no `K_p` exists once `p > degeneracy + 1`. The
    /// `p ≥ 3` entry points answer empty past that bound before they size
    /// anything by `p`.
    fn admits(&self, p: usize) -> bool {
        p <= self.degeneracy() + 1
    }

    /// A fresh per-call candidate arena: one pre-sized buffer per recursion
    /// depth. Capacities are hints (per-vertex/per-edge candidate sets may
    /// exceed the DAG out-degree bound and simply grow).
    fn arena(&self, p: usize) -> Vec<Vec<u32>> {
        (0..p.saturating_sub(1))
            .map(|_| Vec::with_capacity(self.max_out))
            .collect()
    }

    /// [`for_each_clique_while`] against a prebuilt index: calls `visit` for
    /// every `p`-clique of `graph` in the deterministic sequential order
    /// until it declines; returns whether the enumeration completed. Runs
    /// the index's [`kernel`](CliqueIndex::kernel).
    ///
    /// `graph` must be the graph this index was built from.
    pub fn for_each_clique_while(
        &self,
        graph: &Graph,
        p: usize,
        visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        self.for_each_clique_while_forced(graph, p, self.kernel, visit)
    }

    /// The test and bench hook of [`CliqueIndex::for_each_clique_while`]: the
    /// same enumeration on a forced kernel instead of the index's own. A
    /// forced trie whose largest node would overflow
    /// [`TRIE_NODE_WORD_BUDGET`] runs the recursive kernel. Both kernels emit
    /// the same cliques in the same order, byte for byte (the kernel
    /// differential battery enforces this, with this hook as its reference);
    /// only the wall-clock time differs. [`CliqueIndex::for_each_clique_while`]
    /// runs it on the index's own kernel; no production path forces one.
    pub fn for_each_clique_while_forced(
        &self,
        graph: &Graph,
        p: usize,
        kernel: KernelChoice,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if p < 3 {
            return small_p_while(graph, p, visit);
        }
        if !self.admits(p) {
            return true;
        }
        let mut stack: Vec<u32> = Vec::with_capacity(p);
        let mut scratch: Vec<u32> = Vec::with_capacity(p);
        match kernel.within_budget(self.max_out) {
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

    /// The number of `p`-cliques of `graph`, computed on the index's kernel
    /// without visiting a single clique; `None` when the count does not fit
    /// in a `u64`.
    ///
    /// Equal to the number of cliques [`CliqueIndex::for_each_clique_while`]
    /// visits, on every kernel. The recursive kernel adds `|C|` at the last
    /// level instead of emitting each clique; the trie kernel also counts the
    /// level above the last from packed-row popcounts and takes
    /// `C(|C|, needed)` for a complete candidate set. Only the trie kernel
    /// therefore answers huge counts quickly; the recursive kernel still
    /// walks every `(p - 1)`-clique prefix.
    ///
    /// `graph` must be the graph this index was built from.
    pub fn count_cliques(&self, graph: &Graph, p: usize) -> Option<u64> {
        self.count_cliques_forced(graph, p, self.kernel)
    }

    /// The test and bench hook of [`CliqueIndex::count_cliques`]: the same
    /// count on a forced kernel, with the node-budget fallback of
    /// [`CliqueIndex::for_each_clique_while_forced`].
    /// [`CliqueIndex::count_cliques`] runs it on the index's own kernel; no
    /// production path forces one.
    pub fn count_cliques_forced(
        &self,
        graph: &Graph,
        p: usize,
        kernel: KernelChoice,
    ) -> Option<u64> {
        match p {
            0 => Some(1),
            1 => Some(graph.num_vertices() as u64),
            2 => Some(graph.num_edges() as u64),
            _ => self.count_roots(
                graph,
                p,
                kernel.within_budget(self.max_out),
                &self.ordering.order,
            ),
        }
    }

    /// The count-only search from every root in `roots` under a resolved
    /// kernel — the loop behind [`CliqueIndex::count_cliques`] and
    /// [`ShardedEnumerator::count_in_shard`]. Requires `p >= 3`.
    fn count_roots(
        &self,
        graph: &Graph,
        p: usize,
        kernel: KernelChoice,
        roots: &[u32],
    ) -> Option<u64> {
        if !self.admits(p) {
            return Some(0);
        }
        match kernel {
            KernelChoice::Trie => {
                trie::TrieKernel::new().count_roots(graph, &self.bitsets, &self.dag, p, roots)
            }
            KernelChoice::Recursive => {
                let mut arena = self.arena(p);
                let mut total = 0u64;
                for &v in roots {
                    let candidates = self.dag.out_neighbors(v);
                    if candidates.len() + 1 < p {
                        continue;
                    }
                    arena[0].clear();
                    arena[0].extend_from_slice(candidates);
                    total = total.checked_add(count_extensions(
                        graph,
                        &self.bitsets,
                        p - 1,
                        &mut arena,
                    )?)?;
                }
                Some(total)
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
        if !self.admits(p) {
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
        if !self.admits(p) {
            return true;
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
///
/// This is the *visiting* reference count: it streams every clique through
/// [`for_each_clique`] and adds one per visit, never taking the count-only
/// descents or the binomial shortcut of [`CliqueIndex::count_cliques`]. It
/// stays visiting because it is the yardstick: tests hold the count-only
/// path to it, the enumeration cells of the bench trajectory record its
/// count (and time), and the benchmark cross-checks it against an
/// independent census.
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
    if p < 3 {
        return small_p_while(graph, p, visit);
    }
    CliqueIndex::build(graph).for_each_clique_while(graph, p, visit)
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

/// Count-only counterpart of [`extend_clique`]: the number of ways to pick
/// `needed` more vertices, in increasing position, from the candidate set in
/// `arena[0]` so that they form a clique; `None` on `u64` overflow. The last
/// level adds `|C|` instead of visiting each completion, so one level up
/// sums `|C[i+1..] ∩ N(u_i)|`.
fn count_extensions(
    graph: &Graph,
    bitsets: &NeighborBitsets,
    needed: usize,
    arena: &mut [Vec<u32>],
) -> Option<u64> {
    let (current, deeper) = arena.split_at_mut(1);
    let candidates: &[u32] = &current[0];
    if candidates.len() < needed {
        return Some(0);
    }
    if needed == 1 {
        return Some(candidates.len() as u64);
    }
    let mut total = 0u64;
    for (i, &u) in candidates.iter().enumerate() {
        if candidates.len() - i < needed {
            break;
        }
        intersect_candidates(graph, bitsets, u, &candidates[i + 1..], &mut deeper[0]);
        total = total.checked_add(count_extensions(graph, bitsets, needed - 1, deeper)?)?;
    }
    Some(total)
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
            IndexHandle::Owned(index) => index.kernel,
            IndexHandle::Shared(index) => index.kernel,
        };
        ShardedEnumerator {
            graph,
            p,
            index,
            plan,
            kernel,
        }
    }

    /// The test and bench hook of the sharded path: every shard runs a forced
    /// kernel instead of the index's own (constructors take the index's
    /// [`kernel`](CliqueIndex::kernel)), with the node-budget fallback of
    /// [`CliqueIndex::for_each_clique_while_forced`]. Per-shard output is
    /// byte-identical across kernels, so the choice never affects the merged
    /// emission order. No production path calls it.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel.within_budget(self.index().max_out);
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
        if !index.admits(self.p) {
            return true;
        }
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

    /// The number of `p`-cliques rooted in `shard`, computed without visiting
    /// any (see [`CliqueIndex::count_cliques`]); `None` when it does not fit
    /// in a `u64`. Summing every shard gives the whole graph's count.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn count_in_shard(&self, shard: usize) -> Option<u64> {
        let index = self.index();
        let roots = &index.ordering.order[self.plan.range(shard)];
        index.count_roots(self.graph, self.p, self.kernel, roots)
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

/// Reusable state for many per-edge queries against one graph: the adjacency
/// bitsets, the candidate arena, the vertex stack and the sort scratch are
/// built once and shared across every queried edge. The in-cluster listing
/// holds one per cluster and asks it for the cliques of each goal edge in
/// turn.
pub struct EdgeCliqueEnumerator<'g> {
    graph: &'g Graph,
    p: usize,
    bitsets: NeighborBitsets,
    arena: Vec<Vec<u32>>,
    stack: Vec<u32>,
    scratch: Vec<u32>,
}

impl<'g> EdgeCliqueEnumerator<'g> {
    /// Prepares an enumerator for `p`-cliques of `graph`. Builds the
    /// high-degree adjacency bitsets once; worth it from a handful of edge
    /// queries onward. Nothing is sized by `p` here: the candidate arena
    /// grows to its `p - 1` levels on the first query whose edge has the
    /// `p - 2` common candidates a `K_p` needs.
    pub fn new(graph: &'g Graph, p: usize) -> Self {
        EdgeCliqueEnumerator {
            graph,
            p,
            bitsets: NeighborBitsets::build(graph, bitset_threshold(graph)),
            arena: vec![Vec::new()],
            stack: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Streams every `p`-clique that contains the edge `{a, b}` and whose
    /// other vertices all lie in `among` (canonical sorted form, ascending
    /// canonical order, each exactly once) until `visit` declines; returns
    /// whether the query ran to completion. An absent edge visits nothing and
    /// completes.
    ///
    /// `among` must be sorted ascending, and every entry must be adjacent to
    /// `a`. The enumerator intersects it with the neighbourhood of `b`,
    /// probing `b`'s bitset row when it has one, so the candidate set costs
    /// one bit test per entry of `among`. Passing `graph.neighbors(a)` lists
    /// every clique through the edge, like [`cliques_containing_edge`].
    ///
    /// Declining unwinds the search immediately, and the enumerator's scratch
    /// state (candidate arena, vertex stack, sort scratch) is **reset at the
    /// start of every query**, so a query aborted mid-recursion leaves the
    /// enumerator ready for the next edge. The reset is deliberate: an
    /// aborted search skips the unwinding that would otherwise pop the seed
    /// vertices, so relying on balanced pushes/pops would poison the next
    /// query's stack (regression-tested in
    /// `edge_enumerator_resumes_cleanly_after_an_aborted_query`).
    pub fn for_each_containing_edge_while(
        &mut self,
        a: u32,
        b: u32,
        among: &[u32],
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        debug_assert!(among.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(among.iter().all(|&w| self.graph.has_edge(a, w)));
        if self.p < 2 || !self.graph.has_edge(a, b) {
            return true;
        }
        if self.p == 2 {
            return visit(&[a.min(b), a.max(b)]);
        }
        let EdgeCliqueEnumerator {
            graph,
            p,
            bitsets,
            arena,
            stack,
            scratch,
        } = self;
        stack.clear();
        scratch.clear();
        stack.push(a.min(b));
        stack.push(a.max(b));
        intersect_candidates(graph, bitsets, b, among, &mut arena[0]);
        if arena[0].len() + 2 < *p {
            return true;
        }
        arena.resize_with(*p - 1, Vec::new);
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
    let mut common = Vec::new();
    graph.common_neighbors_into(a, b, &mut common);
    // A `K_p` through the edge needs `p - 2` common neighbours; only then is
    // the arena sized by `p`.
    if common.len() + 2 < p {
        return Vec::new();
    }
    let capacity = common.len();
    let mut arena = vec![common];
    arena.resize_with(p - 1, || Vec::with_capacity(capacity));
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
    use crate::orientation::degeneracy_ordering;

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
    fn count_only_descents_are_exact_up_to_u64_and_none_past_it() {
        let g = gen::erdos_renyi(40, 0.3, 4);
        let index = CliqueIndex::build(&g);
        for p in 0..=2 {
            let visited = count_cliques(&g, p) as u64;
            assert_eq!(index.count_cliques(&g, p), Some(visited));
        }
        // On K_n every root's candidate set is complete, so the trie kernel
        // sums one binomial per root: C(n - 1, p - 1) + C(n - 2, p - 1) + …
        // = C(n, p). On K_68 at p = 34 each of those binomials fits in a
        // u64 but their sum does not.
        for (n, p, want) in [(67, 34, Some(14_226_520_737_620_288_370)), (68, 34, None)] {
            let k = gen::complete_graph(n);
            let index = CliqueIndex::build(&k);
            assert_eq!(index.kernel(), KernelChoice::Trie);
            assert_eq!(index.count_cliques(&k, p), want, "K_{n}, p={p}");
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
            index.for_each_clique_while_forced(&g, p, KernelChoice::Recursive, |c| {
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
            let completed = enumerator.for_each_containing_edge_while(a, b, g.neighbors(a), |_| {
                visits += 1;
                false
            });
            assert!(!completed, "p={p}: abort must be reported");
            assert_eq!(visits, 1, "p={p}: exactly one visit before the abort");
            // Every later query must be unaffected by the aborted one: the
            // scratch state (stack, arena, sort scratch) is reset per query.
            // Over the whole neighbourhood, a query streams the one-shot
            // function's sorted list; over part of it, the sublist whose
            // other vertices lie in that part, in the same order.
            for &(c, d) in &edges {
                let mut streamed: Vec<Clique> = Vec::new();
                assert!(
                    enumerator.for_each_containing_edge_while(c, d, g.neighbors(c), |q| {
                        streamed.push(q.to_vec());
                        true
                    })
                );
                assert_eq!(
                    streamed,
                    cliques_containing_edge(&g, p, c, d),
                    "p={p}: query {c}-{d} after an aborted query diverged"
                );
                let even: Vec<u32> = g
                    .neighbors(c)
                    .iter()
                    .copied()
                    .filter(|w| w % 2 == 0)
                    .collect();
                let mut among_even: Vec<Clique> = Vec::new();
                enumerator.for_each_containing_edge_while(c, d, &even, |q| {
                    among_even.push(q.to_vec());
                    true
                });
                streamed.retain(|q| q.iter().all(|&w| w == c || w == d || w % 2 == 0));
                assert_eq!(among_even, streamed, "p={p}: restricted query {c}-{d}");
            }
            // Absent edges visit nothing and complete.
            assert!(enumerator.for_each_containing_edge_while(0, 0, &[], |_| false));
        }
        let (a, b) = g.edges().next().expect("test graph has an edge");
        let mut pairs = Vec::new();
        EdgeCliqueEnumerator::new(&g, 2).for_each_containing_edge_while(
            b,
            a,
            g.neighbors(b),
            |q| {
                pairs.push(q.to_vec());
                true
            },
        );
        assert_eq!(pairs, vec![vec![a, b]]);
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

    #[test]
    fn explicit_kernel_strategies_agree_everywhere() {
        // Trie and recursive kernels must emit identical bytes through every
        // entry point: full listings, early-stopped prefixes and shards.
        // (The cross-crate differential battery widens
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
                    index.for_each_clique_while_forced(g, p, KernelChoice::Recursive, |c| {
                        recursive.push(c.to_vec());
                        true
                    })
                );
                let mut via_trie = Vec::new();
                assert!(
                    index.for_each_clique_while_forced(g, p, KernelChoice::Trie, |c| {
                        via_trie.push(c.to_vec());
                        true
                    })
                );
                assert_eq!(via_trie, recursive, "workload {w} p={p}");
                // Early-stop prefixes agree (and both report the abort).
                let limit = (recursive.len() / 2).max(1);
                for kernel in [KernelChoice::Recursive, KernelChoice::Trie] {
                    let mut prefix = Vec::new();
                    let completed = index.for_each_clique_while_forced(g, p, kernel, |c| {
                        prefix.push(c.to_vec());
                        prefix.len() < limit
                    });
                    if recursive.len() > limit {
                        assert!(!completed, "workload {w} p={p} {kernel}");
                        assert_eq!(prefix, recursive[..limit], "workload {w} p={p} {kernel}");
                    }
                }
                // Shard-by-shard output agrees kernel for kernel.
                for kernel in [KernelChoice::Recursive, KernelChoice::Trie] {
                    let sharded =
                        ShardedEnumerator::with_index(g, &index, p, 6).with_kernel(kernel);
                    let mut merged = Vec::new();
                    for shard in 0..sharded.num_shards() {
                        sharded.for_each_in_shard(shard, |c| merged.push(c.to_vec()));
                    }
                    assert_eq!(merged, recursive, "workload {w} p={p} {kernel}");
                }
            }
        }
    }

    #[test]
    fn auto_kernel_resolution_is_a_pure_degeneracy_rule() {
        // The build-time choice flips exactly at AUTO_TRIE_DEGENERACY: K_32
        // has degeneracy 31, K_33 has 32.
        for (n, want) in [(32, KernelChoice::Recursive), (33, KernelChoice::Trie)] {
            let g = gen::complete_graph(n);
            let index = CliqueIndex::build(&g);
            assert_eq!(index.degeneracy(), n - 1);
            assert_eq!(index.kernel(), want, "K_{n}");
            assert_eq!(CliqueIndex::build(&g), index, "K_{n}");
            // The sharded enumerator runs the index's choice; the forced
            // hook overrides it.
            let sharded = ShardedEnumerator::with_index(&g, &index, 3, 4);
            assert_eq!(sharded.kernel(), want, "K_{n}");
            assert_eq!(
                sharded.with_kernel(KernelChoice::Recursive).kernel(),
                KernelChoice::Recursive
            );
        }
        assert_eq!(AUTO_TRIE_DEGENERACY, 32);
        assert_eq!(KernelChoice::for_graph(31, 31), KernelChoice::Recursive);
        assert_eq!(KernelChoice::for_graph(32, 32), KernelChoice::Trie);
        // The node-budget fallback: a candidate set whose node would take
        // more than TRIE_NODE_WORD_BUDGET words runs the recursive kernel,
        // both when the index picks and when a test forces the trie.
        let (fits, overflows) = (11_584usize, 11_585usize);
        assert!(fits * fits.div_ceil(64) <= TRIE_NODE_WORD_BUDGET);
        assert!(overflows * overflows.div_ceil(64) > TRIE_NODE_WORD_BUDGET);
        assert_eq!(KernelChoice::for_graph(fits, fits), KernelChoice::Trie);
        assert_eq!(
            KernelChoice::for_graph(overflows, overflows),
            KernelChoice::Recursive
        );
        assert_eq!(KernelChoice::Trie.within_budget(fits), KernelChoice::Trie);
        assert_eq!(
            KernelChoice::Trie.within_budget(overflows),
            KernelChoice::Recursive
        );
        assert_eq!(format!("{}", KernelChoice::Trie), "trie");
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
}
