//! The sparsity-aware in-cluster listing step (Section 2.4.3).
//!
//! Once a cluster knows every edge that can form a `K_p` with one of its goal
//! edges, it must actually list those instances within its own bandwidth
//! (Challenge 2). The paper's procedure:
//!
//! 1. assign new dense identifiers `1..k` to the cluster nodes (Lemma 2.5);
//! 2. **reshuffle** the known edges so that a single cluster node is
//!    responsible for all known edges oriented away from each original vertex;
//! 3. draw a random partition of the whole vertex set into `≈ k^{1/p}` parts
//!    and broadcast it inside the cluster;
//! 4. assign every cluster node `p` parts through the radix representation of
//!    its new identifier and deliver to it all known edges between its parts;
//! 5. let every node list the `K_p` instances it now sees, emitting each one
//!    into the caller's [`CliqueSink`].
//!
//! The data movement is performed on the pooled knowledge and the *loads* of
//! steps 2–4 are computed exactly per node; rounds are charged through the
//! cluster router of Theorem 2.4. The sparsity-awareness is step 4: the
//! number of edges between two parts is proportional to the *actual* number of
//! known edges (Lemma 2.7), not to the worst case; the
//! [`ExchangeMode::DenseAssumption`] mode deliberately ignores this and is
//! used by the ablation experiment and the Eden-et-al-style baseline. The
//! mode is selected by [`ListingConfig::exchange_mode`] (a builder option of
//! the [`Engine`](crate::Engine)).
//!
//! Step 5 lists each clique once inside the cluster, at its lexicographically
//! smallest goal edge (see `list_at_first_goal_edge`): the ordering rule that
//! orientation-based listers such as kClist use to find each clique exactly
//! once, applied to goal edges. Goal edges are visited in sorted order and
//! each goal edge's cliques stream in ascending canonical order, so the
//! emission is deterministic and equals the first occurrences of listing
//! every clique through every goal edge.
//!
//! The listing runs on word-parallel bitset rows (`KnowledgeRows`), DIST's
//! induced-subgraph trade-off: the cluster's known and goal adjacency are
//! built once, over dense local ids of the known vertices in ascending
//! global id, so every candidate set is a word-wise AND of packed rows and
//! the smallest-goal-edge rule is a mask on the goal rows. The rows share the
//! trie node's ceiling, [`cliques::TRIE_NODE_WORD_BUDGET`]; knowledge past it
//! (more than 8,192 known vertices) runs the same rule over CSR rows, with
//! the same emission. Duplicates remain only *across*
//! clusters (a clique can hold goal edges of two clusters); `arb_list`'s
//! per-invocation [`Dedup`](crate::sink::Dedup) layer absorbs those for the
//! general variant, and the run-level one does for fast-`K_4`, preserving
//! the engine's exactly-once contract.
//!
//! All load accounting is flat: per-rank loads live in `Vec`s keyed by the
//! dense identifiers of Lemma 2.5 ([`ClusterIds`]), part-pair counts in a
//! [`PairTable`] over the radix parts — no hashing on the per-edge path and
//! no hash-order iteration anywhere.

use crate::config::ListingConfig;
use crate::parts::TupleAssignment;
use crate::result::{phase, Rounds};
use crate::sink::CliqueSink;
use expander::{Cluster, ClusterIds, ClusterRouter, DenseTable, PairTable};
use graphcore::partition::VertexPartition;
use graphcore::{cliques, intersect_sorted_into, EdgeSet, Graph};

pub use crate::config::ExchangeMode;

/// Cost outcome of the in-cluster listing step for one cluster (the listed
/// cliques are streamed to the sink, not returned).
#[derive(Clone, Debug, Default)]
pub struct SparseListingOutcome {
    /// Rounds per phase (identifier assignment, reshuffle, partition
    /// broadcast, part exchange).
    pub rounds: Rounds,
    /// Maximum per-node word load of the reshuffle step.
    pub reshuffle_load: u64,
    /// Maximum per-node word load of the part-exchange step.
    pub exchange_load: u64,
}

/// Input of the in-cluster listing step.
pub struct SparseListingInput<'a> {
    /// The cluster performing the listing.
    pub cluster: &'a Cluster,
    /// The `E_m` graph (used for the cluster's internal bandwidth).
    pub em_graph: &'a Graph,
    /// Known edges as oriented `(source, target)` pairs, deduplicated.
    pub known_edges: &'a [(u32, u32)],
    /// Goal edges of the cluster.
    pub goal_edges: &'a EdgeSet,
    /// Per-cluster-node words of outside knowledge, keyed by dense rank (for
    /// the reshuffle's send load).
    pub learned_words: &'a DenseTable,
    /// Number of vertices of the whole graph.
    pub n: usize,
    /// Orientation out-degree bound of the current graph (`n^d`), used only
    /// by the dense-assumption mode.
    pub arboricity_bound: usize,
}

/// Runs the sparsity-aware listing for one cluster, streaming the listed
/// cliques into `sink` (each once, at its smallest goal edge, in
/// sorted-goal-edge order — see the module docs) and returning the rounds
/// charged.
pub fn cluster_listing(
    input: &SparseListingInput<'_>,
    config: &ListingConfig,
    seed: u64,
    sink: &mut dyn CliqueSink,
) -> SparseListingOutcome {
    let mut outcome = SparseListingOutcome::default();
    let cluster = input.cluster;
    let k = cluster.len();
    let n = input.n;
    let p = config.p;
    let mode = config.exchange_mode;
    let words = config.words_per_edge;
    if k == 0 || input.known_edges.is_empty() {
        return outcome;
    }

    let policy = config.charge_policy;
    let ids = ClusterIds::assign(cluster);
    outcome
        .rounds
        .add(phase::ID_ASSIGNMENT, ClusterIds::charged_rounds(n, &policy));

    let router = ClusterRouter::new(cluster, input.em_graph, n, policy);

    // --- Step 2: reshuffle ------------------------------------------------
    // Responsibility: rank i handles original vertices in one contiguous
    // block of size ceil(n/k).
    let block = n.div_ceil(k).max(1);
    let responsible_rank = |vertex: u32| -> usize { ((vertex as usize) / block).min(k - 1) };

    // Send load: what each cluster node currently holds (its own outgoing
    // incident edges plus what it learned from outside). One pass over the
    // known edges, crediting cluster-member sources by dense rank.
    let mut send_load = DenseTable::new(k);
    // Receive load: each responsible node receives the known out-edges of the
    // vertices in its block.
    let mut recv_load = DenseTable::new(k);
    for &(src, _) in input.known_edges {
        if let Some(rank) = ids.rank(src) {
            send_load.add(rank, words);
        }
        recv_load.add(responsible_rank(src), words);
    }
    for (rank, learned) in input.learned_words.iter() {
        send_load.add(rank, learned);
    }
    outcome.reshuffle_load = send_load.max().max(recv_load.max());
    outcome.rounds.add(
        phase::RESHUFFLE,
        router.rounds_for_load(outcome.reshuffle_load),
    );

    // --- Step 3: random partition and its broadcast ------------------------
    let assignment = TupleAssignment::new(k, p);
    let partition = VertexPartition::random(n, assignment.num_parts, seed);
    // Every node announces the parts of the ~n/k vertices it is responsible
    // for to every other cluster node: load ≈ n words per node.
    outcome
        .rounds
        .add(phase::PARTITION_BROADCAST, router.rounds_for_load(n as u64));

    // --- Step 4: part exchange ---------------------------------------------
    // Count known edges between each unordered pair of parts — a flat
    // upper-triangular table over the `P ≈ k^{1/p}` parts.
    let mut pair_counts = PairTable::new(assignment.num_parts);
    for &(src, dst) in input.known_edges {
        pair_counts.add(partition.part_of(src), partition.part_of(dst), 1);
    }
    // Receive load per rank: sum over its tuples of the counts of every pair
    // of parts in the tuple.
    let dense_pair_load = {
        // Number of vertex pairs between two parts if the graph were complete:
        // used by the dense-assumption ablation.
        let part_size = (n as u64).div_ceil(u64::from(assignment.num_parts)).max(1);
        part_size * part_size
    };
    let mut max_exchange_recv = 0u64;
    // Scratch for the distinct part pairs of one tuple: at most p(p−1)/2
    // entries, sorted + deduped in place (no per-tuple hash set).
    let mut tuple_pairs: Vec<(u32, u32)> = Vec::new();
    for rank in 0..k {
        let mut load = 0u64;
        for t in assignment.tuples_of(rank) {
            assignment.distinct_pairs_into(t, &mut tuple_pairs);
            for &(a, b) in &tuple_pairs {
                let count = match mode {
                    ExchangeMode::SparsityAware => pair_counts.get(a, b),
                    ExchangeMode::DenseAssumption => dense_pair_load,
                };
                load += count * words;
            }
        }
        max_exchange_recv = max_exchange_recv.max(load);
    }
    // Send load per rank: each known edge (owned by the responsible node of
    // its source) is sent to every node owning a tuple containing both
    // endpoint parts.
    let mut exchange_send = DenseTable::new(k);
    for &(src, dst) in input.known_edges {
        let (a, b) = (partition.part_of(src), partition.part_of(dst));
        let copies = assignment.owners_needing(a.min(b), a.max(b));
        exchange_send.add(responsible_rank(src), copies * words);
    }
    let max_exchange_send = match mode {
        ExchangeMode::SparsityAware => exchange_send.max(),
        ExchangeMode::DenseAssumption => {
            // Each responsible node nominally forwards its worst-case share of
            // a dense graph: (n/k)·n^d edges, each to p²·k^{1−2/p} owners.
            let share = (n as u64).div_ceil(k as u64) * input.arboricity_bound as u64;
            let owners =
                ((p * p) as u64) * ((k as f64).powf(1.0 - 2.0 / p as f64).ceil() as u64).max(1);
            share * owners * words
        }
    };
    outcome.exchange_load = max_exchange_send.max(max_exchange_recv);
    outcome.rounds.add(
        phase::PART_EXCHANGE,
        router.rounds_for_load(outcome.exchange_load),
    );

    // --- Step 5: local listing ---------------------------------------------
    // Every K_p whose edges are all known and which contains a goal edge is
    // listed by the owner of the tuple of its vertex parts; since every tuple
    // is owned, this equals the set of K_p in the known-edge graph containing
    // a goal edge.
    match KnowledgeRows::build(n, input.known_edges, input.goal_edges) {
        Some(rows) => rows.list_at_first_goal_edge(p, sink),
        None => list_over_csr(n, input.known_edges, input.goal_edges, p, sink),
    }
    outcome
}

/// A cluster's pooled knowledge as packed bitset rows over dense local ids:
/// the known vertices, numbered in ascending global id (as [`ClusterIds`]
/// numbers the cluster nodes). Row `x` of `known` holds `x`'s known
/// neighbours and row `x` of `goal` its goal-edge partners, `stride` words
/// each, both halves of each matrix.
struct KnowledgeRows {
    /// Local id → global id, ascending.
    verts: Vec<u32>,
    stride: usize,
    known: Vec<u64>,
    goal: Vec<u64>,
}

impl KnowledgeRows {
    /// Builds both matrices in one pass over the known and one over the goal
    /// edges, or `None` when their `2·K·⌈K/64⌉` words for `K` known vertices
    /// would exceed [`cliques::TRIE_NODE_WORD_BUDGET`] (past 8,192 known
    /// vertices). A goal edge with an endpoint outside the known vertices is
    /// not a known edge, so it lists nothing and gets no bit.
    fn build(n: usize, known_edges: &[(u32, u32)], goal_edges: &EdgeSet) -> Option<Self> {
        const ABSENT: u32 = u32::MAX;
        // Mark the known vertices with 0, then number them in ascending
        // global id; unmarked slots stay `ABSENT`.
        let mut local = vec![ABSENT; n];
        for &(a, b) in known_edges {
            local[a as usize] = 0;
            local[b as usize] = 0;
        }
        let mut verts = Vec::new();
        for (x, id) in local.iter_mut().enumerate() {
            if *id == 0 {
                *id = verts.len() as u32;
                verts.push(x as u32);
            }
        }
        let stride = verts.len().div_ceil(64);
        if verts.len().saturating_mul(stride).saturating_mul(2) > cliques::TRIE_NODE_WORD_BUDGET {
            return None;
        }
        let mut known = vec![0u64; verts.len() * stride];
        let mut goal = vec![0u64; verts.len() * stride];
        let set_pair = |rows: &mut [u64], a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            rows[a * stride + (b >> 6)] |= 1 << (b & 63);
            rows[b * stride + (a >> 6)] |= 1 << (a & 63);
        };
        for &(a, b) in known_edges {
            set_pair(&mut known, local[a as usize], local[b as usize]);
        }
        for e in goal_edges {
            let (a, b) = (local[e.u() as usize], local[e.v() as usize]);
            if a != ABSENT && b != ABSENT {
                set_pair(&mut goal, a, b);
            }
        }
        Some(KnowledgeRows {
            verts,
            stride,
            known,
            goal,
        })
    }

    fn known_row(&self, x: usize) -> &[u64] {
        &self.known[x * self.stride..(x + 1) * self.stride]
    }

    fn goal_row(&self, x: usize) -> &[u64] {
        &self.goal[x * self.stride..(x + 1) * self.stride]
    }

    /// The word-parallel form of [`list_at_first_goal_edge`], with the same
    /// emission byte for byte. Goal edges `(u, v)` come off `goal`'s upper
    /// triangle in ascending local, hence global, order. The seed set is
    /// `K(u) & K(v)` minus `G(u)` below `v` and minus `G(v)` below `u`: the
    /// pairs through `u` or `v` that sort before `(u, v)`. The search then
    /// picks candidates in ascending bit order, so the two vertices `x < y`
    /// of a completed clique's goal pair with `x < u` are always picked `x`
    /// first; a pick `w < u` clears `G(w)` from the deeper sets, which drops
    /// exactly the cliques the completed-clique check drops. Nothing is sized
    /// by `p`: the mask levels grow only for a seed set of at least `p - 2`
    /// vertices.
    fn list_at_first_goal_edge(&self, p: usize, sink: &mut dyn CliqueSink) {
        if p < 2 {
            return;
        }
        let stride = self.stride;
        let mut masks = vec![0u64; stride];
        let mut search = GoalEdgeSearch {
            rows: self,
            p,
            u: 0,
            stack: Vec::new(),
            scratch: Vec::new(),
        };
        for u in 0..self.verts.len() {
            let (goal_u, known_u) = (self.goal_row(u), self.known_row(u));
            for (wi, &goal_word) in goal_u.iter().enumerate().skip(u >> 6) {
                let mut word = goal_word & !below(u + 1, wi);
                while word != 0 {
                    let v = (wi << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if sink.is_saturated() {
                        return;
                    }
                    // A goal edge absent from the known edges lists nothing.
                    if known_u[v >> 6] >> (v & 63) & 1 == 0 {
                        continue;
                    }
                    let (gu, gv) = (self.verts[u], self.verts[v]);
                    if p == 2 {
                        sink.accept(&[gu, gv]);
                        continue;
                    }
                    self.seed_set(u, v, &mut masks[..stride]);
                    let seeds: u32 = masks[..stride].iter().map(|w| w.count_ones()).sum();
                    if (seeds as usize) < p - 2 {
                        continue;
                    }
                    // `p - 2 ≤ seeds ≤ K`: one mask level per vertex still
                    // to pick.
                    masks.resize(masks.len().max((p - 2) * stride), 0);
                    search.u = u;
                    search.stack.clear();
                    search.stack.extend_from_slice(&[gu, gv]);
                    search.descend(&mut masks, 0, sink);
                }
            }
        }
    }

    /// Writes the seed set of goal edge `(u, v)`, `u < v`, into `out`: the
    /// common known neighbours `w` with `{u, w}` not a goal edge if `w < v`,
    /// and `{w, v}` not a goal edge if `w < u`.
    fn seed_set(&self, u: usize, v: usize, out: &mut [u64]) {
        let (known_u, known_v) = (self.known_row(u), self.known_row(v));
        let (goal_u, goal_v) = (self.goal_row(u), self.goal_row(v));
        for (j, word) in out.iter_mut().enumerate() {
            *word =
                known_u[j] & known_v[j] & !(goal_u[j] & below(v, j)) & !(goal_v[j] & below(u, j));
        }
    }
}

/// The bits of word `j` whose index is below `x`.
fn below(x: usize, j: usize) -> u64 {
    match j.cmp(&(x >> 6)) {
        std::cmp::Ordering::Less => !0,
        std::cmp::Ordering::Equal => (1 << (x & 63)) - 1,
        std::cmp::Ordering::Greater => 0,
    }
}

/// The depth-first search below one goal edge over a cluster's
/// [`KnowledgeRows`]. The mask levels live in a separate buffer, split one
/// level per call, as the trie kernel splits its arena.
struct GoalEdgeSearch<'r> {
    rows: &'r KnowledgeRows,
    p: usize,
    /// Local id of the goal edge's lower endpoint: a pick below it clears
    /// its goal row from the deeper sets.
    u: usize,
    /// The clique so far in global ids: the goal edge, then the picks in
    /// ascending order.
    stack: Vec<u32>,
    scratch: Vec<u32>,
}

impl GoalEdgeSearch<'_> {
    /// Extends the stack by every vertex of the candidate set in
    /// `masks[..stride]`, in ascending order, and emits each completed
    /// clique sorted; returns `false` once the sink saturates. Words below
    /// `from` are empty and never read.
    fn descend(&mut self, masks: &mut [u64], from: usize, sink: &mut dyn CliqueSink) -> bool {
        let rows = self.rows;
        let stride = rows.stride;
        let (current, deeper) = masks.split_at_mut(stride);
        let needed = self.p - self.stack.len();
        let mut remaining: usize = current[from..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        for wi in from..stride {
            let mut word = current[wi];
            while word != 0 {
                if remaining < needed {
                    return true;
                }
                let w = (wi << 6) + word.trailing_zeros() as usize;
                // What is left of the word are the candidates above `w`.
                word &= word - 1;
                remaining -= 1;
                self.stack.push(rows.verts[w]);
                let keep_going = if needed == 1 {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(&self.stack);
                    self.scratch.sort_unstable();
                    sink.accept(&self.scratch);
                    !sink.is_saturated()
                } else {
                    // The candidates above `w` that see it, minus its goal
                    // partners when `w < u`. An empty child is not entered.
                    let (known_w, goal_w) = (rows.known_row(w), rows.goal_row(w));
                    let clear = if w < self.u { !0 } else { 0 };
                    let mut live = 0;
                    for j in wi..stride {
                        let rest = if j == wi { word } else { current[j] };
                        deeper[j] = rest & known_w[j] & !(goal_w[j] & clear);
                        live |= deeper[j];
                    }
                    live == 0 || self.descend(deeper, wi, sink)
                };
                self.stack.pop();
                if !keep_going {
                    return false;
                }
            }
        }
        true
    }
}

/// Step 5 over CSR rows, for knowledge too large for [`KnowledgeRows`]:
/// the known and goal graphs feed [`list_at_first_goal_edge`].
fn list_over_csr(
    n: usize,
    known_edges: &[(u32, u32)],
    goal_edges: &EdgeSet,
    p: usize,
    sink: &mut dyn CliqueSink,
) {
    let undirected: Vec<(u32, u32)> = known_edges
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    let known_graph = Graph::from_edges(n, &undirected).expect("known edges are in range");
    let goal_graph = Graph::from_edge_set(n, goal_edges).expect("goal edges are in range");
    list_at_first_goal_edge(&known_graph, &goal_graph, p, sink);
}

/// Streams every `p`-clique of `known` that contains an edge of `goal` into
/// `sink`, each exactly once: at its lexicographically smallest goal edge.
///
/// Goal edges are visited in sorted order, and goal edge `(u, v)` with
/// `u < v` streams its cliques in ascending canonical order, keeping only
/// those with no smaller goal edge inside:
///
/// - a common neighbour `w` of `u` and `v` seeds the search if `w > v`; if
///   `u < w < v` and `{u, w}` is not a goal edge; or if `w < u` and neither
///   `{w, u}` nor `{w, v}` is one — the pairs through `u` or `v` that sort
///   before `(u, v)`;
/// - a completed clique is dropped if two of its other vertices `x < y`,
///   with `x < u`, form a goal edge.
///
/// The result is exactly the first occurrences of the listing that streams
/// *every* clique of every goal edge, in the same order, so a downstream
/// `Dedup` sees each clique once and early-stop prefixes do not move. The
/// seeds below `v` come from the non-goal rows, and the enumerator probes
/// the seed list against `v`'s bitset row; no edge set is hashed. A
/// saturated sink stops the enumeration mid-edge.
fn list_at_first_goal_edge(known: &Graph, goal: &Graph, p: usize, sink: &mut dyn CliqueSink) {
    let non_goal = row_difference(known, goal);
    let mut enumerator = cliques::EdgeCliqueEnumerator::new(known, p);
    let mut seeds: Vec<u32> = Vec::new();
    let below = |row: &[u32], bound: u32| row.partition_point(|&w| w < bound);
    for (u, v) in goal.edges() {
        if sink.is_saturated() {
            break;
        }
        // Seeds in ascending order, each adjacent to `u`; the enumerator
        // keeps those adjacent to `v`.
        let (non_goal_u, non_goal_v) = (non_goal.neighbors(u), non_goal.neighbors(v));
        let known_u = known.neighbors(u);
        let (u_at, v_at) = (below(non_goal_u, u), below(non_goal_v, u));
        // w < u: neither {w, u} nor {w, v} is a goal edge.
        intersect_sorted_into(&non_goal_u[..u_at], &non_goal_v[..v_at], &mut seeds);
        // u < w < v: {u, w} is not a goal edge.
        seeds.extend_from_slice(&non_goal_u[u_at..below(non_goal_u, v)]);
        // w > v: no pair through w sorts before (u, v).
        seeds.extend_from_slice(&known_u[below(known_u, v + 1)..]);
        enumerator.for_each_containing_edge_while(u, v, &seeds, |clique| {
            let earlier_goal_edge =
                clique
                    .iter()
                    .take_while(|&&x| x < u)
                    .enumerate()
                    .any(|(i, &x)| {
                        clique[i + 1..]
                            .iter()
                            .any(|&y| y != u && y != v && goal.has_edge(x, y))
                    });
            if !earlier_goal_edge {
                sink.accept(clique);
            }
            !sink.is_saturated()
        });
    }
}

/// The known edges that are not goal edges: row `x` is the sorted difference
/// of `x`'s known and goal rows, taken by one merge per row.
fn row_difference(known: &Graph, goal: &Graph) -> Graph {
    let mut edges = Vec::new();
    for x in 0..known.num_vertices() as u32 {
        let goal_row = goal.neighbors(x);
        let mut at = 0;
        for &y in known.neighbors(x).iter().filter(|&&y| y > x) {
            while goal_row.get(at).is_some_and(|&g| g < y) {
                at += 1;
            }
            if goal_row.get(at) != Some(&y) {
                edges.push((x, y));
            }
        }
    }
    Graph::from_edges(known.num_vertices(), &edges).expect("known edges are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountSink, Dedup, FirstK};
    use graphcore::{gen, Clique, Edge, Orientation};
    use std::collections::HashSet;

    fn inputs_for(
        graph: &Graph,
        cluster_size: usize,
    ) -> (Cluster, Graph, Vec<(u32, u32)>, EdgeSet) {
        inputs_for_cluster(graph, (0..cluster_size as u32).collect())
    }

    /// The known edges are all of `graph`'s edges, oriented by degeneracy;
    /// the cluster's edges `E_m` are those between two of `vertices`.
    fn inputs_for_cluster(
        graph: &Graph,
        vertices: Vec<u32>,
    ) -> (Cluster, Graph, Vec<(u32, u32)>, EdgeSet) {
        let cluster = Cluster::new(0, vertices);
        let em: EdgeSet = graph
            .edges()
            .filter(|&(u, v)| cluster.contains(u) && cluster.contains(v))
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let em_graph = Graph::from_edge_set(graph.num_vertices(), &em).unwrap();
        let orientation = Orientation::from_degeneracy(graph);
        let known: Vec<(u32, u32)> = graph
            .edges()
            .map(|(u, v)| match orientation.source_of(u, v) {
                Some(s) if s == v => (v, u),
                _ => (u, v),
            })
            .collect();
        (cluster, em_graph, known, em)
    }

    fn listed(
        input: &SparseListingInput<'_>,
        config: &ListingConfig,
        seed: u64,
    ) -> (SparseListingOutcome, HashSet<Clique>) {
        let mut collect = Dedup::new(CollectSink::new());
        let outcome = cluster_listing(input, config, seed, &mut collect);
        (outcome, collect.into_inner().into_cliques())
    }

    #[test]
    fn lists_all_cliques_with_a_goal_edge() {
        let g = gen::erdos_renyi(40, 0.3, 5);
        let (cluster, em_graph, known, em) = inputs_for(&g, 15);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 40,
            arboricity_bound: 10,
        };
        let cfg = ListingConfig::for_p(4);
        let (out, got) = listed(&input, &cfg, 3);
        // Expected: all K4 of g containing an edge inside the cluster prefix.
        let expected: HashSet<Clique> = cliques::list_cliques(&g, 4)
            .into_iter()
            .filter(|c| {
                c.iter()
                    .enumerate()
                    .any(|(i, &a)| c[i + 1..].iter().any(|&b| em.contains_pair(a, b)))
            })
            .collect();
        assert_eq!(got, expected);
        assert!(out.rounds.total() > 0);
    }

    #[test]
    fn dense_mode_charges_at_least_as_many_rounds() {
        let g = gen::erdos_renyi(60, 0.2, 9);
        let (cluster, em_graph, known, em) = inputs_for(&g, 20);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 60,
            arboricity_bound: 12,
        };
        let cfg = ListingConfig::for_p(4);
        let dense_cfg = cfg.with_exchange_mode(ExchangeMode::DenseAssumption);
        let (sparse, sparse_cliques) = listed(&input, &cfg, 1);
        let (dense, dense_cliques) = listed(&input, &dense_cfg, 1);
        assert!(
            dense.rounds.for_phase(phase::PART_EXCHANGE)
                >= sparse.rounds.for_phase(phase::PART_EXCHANGE)
        );
        // Both list exactly the same cliques.
        assert_eq!(sparse_cliques, dense_cliques);
    }

    #[test]
    fn empty_inputs_are_cheap() {
        let g = gen::path_graph(10);
        let cluster = Cluster::new(0, vec![0, 1]);
        let em_graph = g.clone();
        let learned = DenseTable::new(cluster.len());
        let goal = EdgeSet::new();
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &[],
            goal_edges: &goal,
            learned_words: &learned,
            n: 10,
            arboricity_bound: 1,
        };
        let cfg = ListingConfig::for_p(4);
        let (out, got) = listed(&input, &cfg, 1);
        assert!(got.is_empty());
        assert_eq!(out.rounds.total(), 0);
    }

    #[test]
    fn loads_grow_with_edge_count() {
        let sparse_graph = gen::erdos_renyi(50, 0.08, 2);
        let dense_graph = gen::erdos_renyi(50, 0.5, 2);
        let cfg = ListingConfig::for_p(5);
        let mut loads = Vec::new();
        for g in [&sparse_graph, &dense_graph] {
            let (cluster, em_graph, known, em) = inputs_for(g, 25);
            let learned = DenseTable::new(cluster.len());
            let input = SparseListingInput {
                cluster: &cluster,
                em_graph: &em_graph,
                known_edges: &known,
                goal_edges: &em,
                learned_words: &learned,
                n: 50,
                arboricity_bound: 20,
            };
            let (out, _) = listed(&input, &cfg, 7);
            loads.push(out.exchange_load);
        }
        assert!(
            loads[1] > loads[0],
            "dense load {} <= sparse load {}",
            loads[1],
            loads[0]
        );
    }

    #[test]
    fn saturated_sinks_stop_the_local_enumeration_but_not_the_rounds() {
        let g = gen::complete_graph(20);
        let (cluster, em_graph, known, em) = inputs_for(&g, 20);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 20,
            arboricity_bound: 19,
        };
        let cfg = ListingConfig::for_p(4);
        let mut first = crate::sink::FirstK::new(1);
        let out = cluster_listing(&input, &cfg, 3, &mut first);
        assert_eq!(first.cliques.len(), 1);
        // Rounds are still the full communication cost.
        let (full, _) = listed(&input, &cfg, 3);
        assert_eq!(out.rounds.total(), full.rounds.total());
    }

    /// The sequence a `Dedup` lets through when every clique of every goal
    /// edge is listed: first occurrences, in sorted goal-edge order,
    /// ascending canonical order within an edge.
    fn first_occurrences(known: &Graph, goal: &EdgeSet, p: usize) -> Vec<Clique> {
        let mut seen = HashSet::new();
        goal.to_sorted_vec()
            .iter()
            .flat_map(|e| cliques::cliques_containing_edge(known, p, e.u(), e.v()))
            .filter(|c| seen.insert(c.clone()))
            .collect()
    }

    /// How many cliques the completed-clique check has to drop: at goal edge
    /// `(u, v)`, every other vertex passes the seed test, yet two other
    /// vertices `x < y` with `x < u` form a goal edge.
    fn pairwise_rejections(known: &Graph, goal: &EdgeSet, p: usize) -> usize {
        let is_goal = |a: u32, b: u32| goal.contains_pair(a, b);
        let mut rejections = 0;
        for e in goal.to_sorted_vec() {
            let (u, v) = (e.u(), e.v());
            for c in cliques::cliques_containing_edge(known, p, u, v) {
                let others: Vec<u32> = c.into_iter().filter(|&w| w != u && w != v).collect();
                let seeds_pass = others
                    .iter()
                    .all(|&w| w > v || (!is_goal(u, w) && (w > u || !is_goal(w, v))));
                let pair_hit = others
                    .iter()
                    .enumerate()
                    .any(|(i, &x)| x < u && others[i + 1..].iter().any(|&y| is_goal(x, y)));
                rejections += usize::from(seeds_pass && pair_hit);
            }
        }
        rejections
    }

    #[test]
    fn each_clique_is_listed_once_at_its_smallest_goal_edge() {
        let mut rejections = 0;
        // The first two clusters are the whole graph: one word of rows. The
        // third is the even vertices of `er(200, 0.3)`, whose ids interleave
        // with those of outside known vertices, across four words of rows.
        let cells: [(Graph, Vec<u32>); 3] = [
            (gen::erdos_renyi(30, 0.6, 4), (0..30).collect()),
            (gen::complete_graph(12), (0..12).collect()),
            (gen::erdos_renyi(200, 0.3, 4), (0..200).step_by(2).collect()),
        ];
        for (g, vertices) in cells {
            let n = g.num_vertices();
            let (cluster, em_graph, known, em) = inputs_for_cluster(&g, vertices);
            let learned = DenseTable::new(cluster.len());
            let edges = em.to_sorted_vec();
            // Goal sets: every edge, one edge, and each edge with
            // probability 1/2 (the coin is an independent G(n, 1/2)).
            let mut goal_sets: Vec<EdgeSet> = vec![
                edges.iter().copied().collect(),
                std::iter::once(edges[edges.len() / 2]).collect(),
            ];
            for seed in 0..4 {
                let coin = gen::erdos_renyi(n, 0.5, 100 + seed);
                goal_sets.push(
                    edges
                        .iter()
                        .copied()
                        .filter(|e| coin.has_edge(e.u(), e.v()))
                        .collect(),
                );
            }
            for goal in &goal_sets {
                let input = SparseListingInput {
                    cluster: &cluster,
                    em_graph: &em_graph,
                    known_edges: &known,
                    goal_edges: goal,
                    learned_words: &learned,
                    n,
                    arboricity_bound: n - 1,
                };
                for p in [3usize, 4, 5] {
                    let cfg = ListingConfig::for_p(p);
                    let oracle = first_occurrences(&g, goal, p);
                    // An unbounded FirstK records every accept, in order.
                    let mut raw = FirstK::new(usize::MAX);
                    cluster_listing(&input, &cfg, 1, &mut raw);
                    let distinct: HashSet<&Clique> = raw.cliques.iter().collect();
                    assert_eq!(distinct.len(), raw.cliques.len(), "p={p}: a clique repeats");
                    assert_eq!(raw.cliques, oracle, "p={p}: not the deduplicated sequence");
                    for k in [1, oracle.len() / 3, oracle.len()] {
                        let mut first = FirstK::new(k);
                        cluster_listing(&input, &cfg, 1, &mut first);
                        assert_eq!(first.cliques, oracle[..k.min(oracle.len())], "p={p} k={k}");
                    }
                    rejections += pairwise_rejections(&g, goal, p);
                }
            }
        }
        assert!(
            rejections > 0,
            "no cell exercised the completed-clique check"
        );
    }

    /// Folds an emission sequence into its length and an order-sensitive
    /// hash, so long sequences compare without being stored.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Fingerprint {
        count: u64,
        hash: u64,
    }

    impl CliqueSink for Fingerprint {
        fn accept(&mut self, clique: &[u32]) {
            self.count += 1;
            for &x in clique {
                self.hash = (self.hash ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
            }
            self.hash = self.hash.rotate_left(17) ^ self.count;
        }
    }

    /// The word path and the CSR loop emit the same raw sequence, and stop at
    /// the same prefix under a saturating sink; at `p = 2` that is every goal
    /// edge that is a known edge. The goal edges are the pairs of an
    /// independent `G(n, 1/2)`: about half of the known edges, so every part
    /// of the smallest-goal-edge rule fires, and pairs that are not known
    /// edges, which list nothing on either path.
    #[test]
    fn word_rows_and_the_csr_loop_emit_identical_sequences() {
        let graphs = [
            gen::clique_listing_workload(220, 4, 0.8, 5, 3).0,
            gen::erdos_renyi(120, 0.3, 5),
            gen::erdos_renyi(200, 0.5, 6),
        ];
        for g in &graphs {
            let n = g.num_vertices();
            let (_, _, known, _) = inputs_for(g, n);
            let goal: EdgeSet = gen::erdos_renyi(n, 0.5, 7)
                .edges()
                .map(|(u, v)| Edge::new(u, v))
                .collect();
            let rows = KnowledgeRows::build(n, &known, &goal).expect("within the word budget");
            for p in [2usize, 3, 4, 5] {
                let (mut words, mut csr) = (Fingerprint::default(), Fingerprint::default());
                rows.list_at_first_goal_edge(p, &mut words);
                list_over_csr(n, &known, &goal, p, &mut csr);
                assert_eq!(words, csr, "n={n} p={p}");
                assert!(words.count > 0, "n={n} p={p}: nothing listed");
                for k in [1, 17, 1000] {
                    let (mut words, mut csr) = (FirstK::new(k), FirstK::new(k));
                    rows.list_at_first_goal_edge(p, &mut words);
                    list_over_csr(n, &known, &goal, p, &mut csr);
                    assert_eq!(words.cliques, csr.cliques, "n={n} p={p} k={k}");
                }
            }
        }
    }

    /// More than 8,192 known vertices overflow the word budget, so the CSR
    /// loop lists them: a path with planted `K_6`s, against the oracle. The
    /// cluster is the even vertices, so its goal edges are the planted edges
    /// between two even members.
    #[test]
    fn knowledge_over_the_word_budget_runs_the_csr_loop() {
        let n = 8_300;
        let mut planted = Vec::new();
        for c in 0..12u32 {
            let members: Vec<u32> = (0..6).map(|i| c * 97 + i * 1_301).collect();
            for (i, &a) in members.iter().enumerate() {
                planted.extend(members[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        let g = gen::path_graph(n).with_edges_added(&planted).unwrap();
        let (cluster, em_graph, known, em) =
            inputs_for_cluster(&g, (0..n as u32).step_by(2).collect());
        assert!(KnowledgeRows::build(n, &known, &em).is_none());
        let learned = DenseTable::new(cluster.len());
        // Goal sets: every edge, one edge, and each edge with probability
        // 1/2 (a G(n, 1/2) coin would hold 17M edges here).
        let edges = em.to_sorted_vec();
        let mut rng = congest::DeterministicRng::from_seed(100);
        let goal_sets: [EdgeSet; 3] = [
            edges.iter().copied().collect(),
            std::iter::once(edges[edges.len() / 2]).collect(),
            edges.iter().copied().filter(|_| rng.coin(0.5)).collect(),
        ];
        for goal in &goal_sets {
            let input = SparseListingInput {
                cluster: &cluster,
                em_graph: &em_graph,
                known_edges: &known,
                goal_edges: goal,
                learned_words: &learned,
                n,
                arboricity_bound: 5,
            };
            for p in [3usize, 4, 5] {
                let cfg = ListingConfig::for_p(p);
                let oracle = first_occurrences(&g, goal, p);
                let mut raw = FirstK::new(usize::MAX);
                cluster_listing(&input, &cfg, 1, &mut raw);
                assert_eq!(raw.cliques, oracle, "p={p}");
                let k = oracle.len() / 3;
                let mut first = FirstK::new(k);
                cluster_listing(&input, &cfg, 1, &mut first);
                assert_eq!(first.cliques, oracle[..k], "p={p} k={k}");
            }
        }
    }

    /// No `K_p` exists once `p` exceeds the known vertex count; both paths
    /// answer empty without sizing anything by `p`.
    #[test]
    fn p_far_above_the_candidates_answers_empty() {
        let g = gen::erdos_renyi(30, 0.6, 4);
        let n = g.num_vertices();
        let (_, _, known, em) = inputs_for(&g, n);
        let rows = KnowledgeRows::build(n, &known, &em).unwrap();
        for p in [n + 1, usize::MAX] {
            let (mut words, mut csr) = (CountSink::new(), CountSink::new());
            rows.list_at_first_goal_edge(p, &mut words);
            list_over_csr(n, &known, &em, p, &mut csr);
            assert_eq!((words.count, csr.count), (0, 0), "p={p}");
        }
    }
}
