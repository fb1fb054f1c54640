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
//! every clique through every goal edge. Duplicates remain only *across*
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
    let undirected: Vec<(u32, u32)> = input
        .known_edges
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    let known_graph = Graph::from_edges(n, &undirected).expect("known edges are in range");
    let goal_graph = Graph::from_edge_set(n, input.goal_edges).expect("goal edges are in range");
    list_at_first_goal_edge(&known_graph, &goal_graph, p, sink);
    outcome
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
    use crate::sink::{CollectSink, Dedup, FirstK};
    use graphcore::{gen, Clique, Edge, Orientation};
    use std::collections::HashSet;

    fn inputs_for(
        graph: &Graph,
        cluster_size: usize,
    ) -> (Cluster, Graph, Vec<(u32, u32)>, EdgeSet) {
        let cluster = Cluster::new(0, (0..cluster_size as u32).collect());
        let em: EdgeSet = graph
            .edges()
            .filter(|&(u, v)| (u as usize) < cluster_size && (v as usize) < cluster_size)
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
        for g in [gen::erdos_renyi(30, 0.6, 4), gen::complete_graph(12)] {
            let n = g.num_vertices();
            let (cluster, em_graph, known, _) = inputs_for(&g, n);
            let learned = DenseTable::new(cluster.len());
            let edges: Vec<Edge> = g.edges().map(|(u, v)| Edge::new(u, v)).collect();
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
}
