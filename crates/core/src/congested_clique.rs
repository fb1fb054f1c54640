//! Sparsity-aware `K_p` listing in the CONGESTED CLIQUE model (Theorem 1.3).
//!
//! The algorithm is the in-cluster listing of Section 2.4.3 executed on the
//! whole clique: partition the vertex set into `≈ n^{1/p}` parts, assign every
//! node a `p`-tuple of parts through the radix representation of its
//! identifier, deliver every edge to the nodes whose tuple contains both
//! endpoint parts, and let each node list what it sees. The round complexity
//! is `~Θ(1 + m / n^{1+2/p})`: every node sends and receives
//! `O(p² m / n^{2/p})` messages and the clique moves `n − 1` messages per node
//! per round (Lenzen routing).
//!
//! The algorithm is reached through the [`Engine`](crate::Engine) (algorithm
//! `congested-clique`), which streams the listed cliques into a
//! [`CliqueSink`] and reports the send/receive loads in
//! [`RunReport::congested_clique`](crate::RunReport::congested_clique). The
//! pre-Engine free function (`congested_clique_list`) survived PR 2 as a
//! deprecated wrapper and was removed in the following release.

use crate::config::ListingConfig;
use crate::parts::TupleAssignment;
use crate::report::CongestedCliqueStats;
use crate::result::{phase, Rounds};
use crate::sink::CliqueSink;
use congest::CongestedClique;
use graphcore::orientation::degeneracy_ordering;
use graphcore::partition::VertexPartition;
use graphcore::{Graph, Orientation};

/// Runs the CONGESTED CLIQUE algorithm, emitting every `K_p` of `graph` into
/// `sink` exactly once, and returns the measured rounds, the load statistics,
/// and the worker fan-out the local enumeration actually reached.
///
/// The caller is responsible for validating `config` (`p ≥ 3`); the
/// [`Engine`](crate::Engine) builder does this. Graphs with fewer than two
/// vertices have no edges and cost nothing, and so does a `p` past the
/// degeneracy bound (`p > degeneracy + 1`), where no `K_p` exists.
pub(crate) fn run_streaming(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> (Rounds, CongestedCliqueStats, usize) {
    let n = graph.num_vertices();
    let p = config.p;
    let m = graph.num_edges();
    let mut rounds = Rounds::new();
    let mut stats = CongestedCliqueStats {
        predicted_rounds: if n >= 2 {
            1.0 + m as f64 / (n as f64).powf(1.0 + 2.0 / p as f64)
        } else {
            0.0
        },
        ..Default::default()
    };

    if m == 0 || n < 2 {
        return (rounds, stats, 1);
    }
    // No `K_p` exists past the degeneracy bound, so the run answers empty
    // there, before the tuple assignment is sized by `p`.
    let ordering = degeneracy_ordering(graph);
    if p > ordering.degeneracy + 1 {
        return (rounds, stats, 1);
    }
    let clique = CongestedClique::new(n);

    // Orientation with out-degree O(arboricity): each node is responsible for
    // its outgoing edges.
    let orientation = Orientation::from_ordering(graph, &ordering);

    // Partition into ~n^{1/p} parts; announcing one part per owned vertex is a
    // single round (every node broadcasts its own part).
    let assignment = TupleAssignment::new(n, p);
    let partition = VertexPartition::random(n, assignment.num_parts, config.seed);
    rounds.add(phase::PARTITION_BROADCAST, 1);

    // Edge exchange loads. The pair counts live in a flat upper-triangular
    // [`PairTable`] over the `≈ n^{1/p}` parts and the per-tuple pair dedup
    // is a sorted scratch vector — no hash container anywhere on this path,
    // so every intermediate iteration order is structural (the same flat
    // layout the in-cluster listing uses; see `expander::ids`).
    let words = config.words_per_edge;
    let mut pair_counts = expander::PairTable::new(assignment.num_parts);
    let mut send_load = vec![0u64; n];
    for (u, v) in graph.edges() {
        let (a, b) = (partition.part_of(u), partition.part_of(v));
        pair_counts.add(a, b, 1);
        let source = orientation.source_of(u, v).unwrap_or(u);
        send_load[source as usize] += assignment.owners_needing(a.min(b), a.max(b)) * words;
    }
    let mut max_recv = 0u64;
    let mut tuple_pairs: Vec<(u32, u32)> = Vec::new();
    for rank in 0..n {
        let mut load = 0u64;
        for t in assignment.tuples_of(rank) {
            assignment.distinct_pairs_into(t, &mut tuple_pairs);
            for &(a, b) in &tuple_pairs {
                load += pair_counts.get(a, b) * words;
            }
        }
        max_recv = max_recv.max(load);
    }
    stats.max_send = send_load.iter().copied().max().unwrap_or(0);
    stats.max_recv = max_recv;
    rounds.add(
        phase::PART_EXCHANGE,
        clique.routing_rounds(stats.max_send, stats.max_recv),
    );

    // Every tuple is owned by some node, so every K_p (whose vertices fall in
    // some multiset of parts) is listed by the owner of the corresponding
    // tuple: the union of the node outputs is the full list, and the exact
    // enumeration emits each instance once, in deterministic order. A
    // saturated sink aborts the enumeration (not the charged rounds). The
    // node-local listings are independent, so this is a dense local
    // enumeration the engine may shard across threads — output is identical
    // at any `Parallelism` setting.
    let threads_used = crate::local::stream_cliques(graph, config, sink);
    (rounds, stats, threads_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::report::RunReport;
    use crate::verify::verify_cliques;
    use graphcore::gen;

    fn run(graph: &Graph, p: usize, seed: u64) -> (RunReport, Vec<graphcore::Clique>) {
        Engine::builder()
            .p(p)
            .algorithm("congested-clique")
            .seed(seed)
            .build()
            .expect("valid engine")
            .collect(graph)
    }

    #[test]
    fn lists_everything() {
        let g = gen::erdos_renyi(80, 0.2, 3);
        for p in [3, 4, 5] {
            let (_, cliques) = run(&g, p, 1);
            verify_cliques(&g, p, &cliques).expect("complete listing");
        }
    }

    #[test]
    fn rounds_grow_with_density() {
        let n = 200;
        let (sparse, _) = run(&gen::erdos_renyi(n, 0.02, 7), 4, 1);
        let (dense, _) = run(&gen::erdos_renyi(n, 0.4, 7), 4, 1);
        assert!(dense.total_rounds() >= sparse.total_rounds());
        let sparse_stats = sparse.congested_clique.unwrap();
        let dense_stats = dense.congested_clique.unwrap();
        assert!(dense_stats.max_recv > sparse_stats.max_recv);
        assert!(dense_stats.predicted_rounds > sparse_stats.predicted_rounds);
    }

    #[test]
    fn sparse_graphs_take_constant_rounds() {
        // m = O(n): Theorem 1.3 predicts O~(1) rounds, i.e. the round count
        // must not grow when n doubles at constant average degree (the p²
        // polylog factors hidden by O~ keep the absolute value above 1).
        let (small, _) = run(&gen::random_regular(200, 4, 5), 4, 2);
        let (large, _) = run(&gen::random_regular(400, 4, 5), 4, 2);
        assert!(
            large.total_rounds() <= small.total_rounds() + 2,
            "rounds grew from {} to {}",
            small.total_rounds(),
            large.total_rounds()
        );
        assert!(large.congested_clique.unwrap().predicted_rounds < 2.0);
    }

    #[test]
    fn empty_graph_is_free() {
        let (report, cliques) = run(&Graph::new(10), 4, 0);
        assert!(cliques.is_empty());
        assert_eq!(report.total_rounds(), 0);
        // Degenerate clique sizes are handled without panicking.
        let (report, cliques) = run(&Graph::new(1), 4, 0);
        assert!(cliques.is_empty());
        assert_eq!(report.total_rounds(), 0);
    }

    #[test]
    fn small_p_rejected_by_the_builder() {
        assert!(Engine::builder()
            .p(2)
            .algorithm("congested-clique")
            .build()
            .is_err());
    }
}
