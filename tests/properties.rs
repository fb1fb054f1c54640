//! Property-based tests for the core invariants:
//!
//! * the distributed listing output always equals the exact enumeration;
//! * orientations cover their graphs with out-degree bounded by the degeneracy;
//! * the expander decomposition is an exact partition with `|E_r| ≤ |E|/6`;
//! * radix part tuples cover every multiset of parts;
//! * random vertex partitions preserve the edge count;
//! * a clique size past the degeneracy bound answers empty at every entry
//!   point instead of panicking.
//!
//! The cases are drawn from a deterministic in-tree generator (the build
//! environment has no proptest), so failures reproduce exactly; each property
//! is exercised on a fixed number of sampled inputs spanning the same ranges
//! the original proptest strategies used.

mod common;

use distributed_clique_listing::cliquelist::parts::TupleAssignment;
use distributed_clique_listing::cliquelist::{verify_cliques, Engine, Parallelism};
use distributed_clique_listing::expander::{decompose, DecompositionConfig};
use distributed_clique_listing::graphcore::orientation::{degeneracy_ordering, Orientation};
use distributed_clique_listing::graphcore::partition::VertexPartition;
use distributed_clique_listing::graphcore::{cliques, gen, Edge, EdgeBatch, EdgeSet, Graph};
use distributed_clique_listing::query::{
    delta_cliques, GraphSnapshot, QueryBuilder, QueryOutcome, QueryService,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of sampled cases per property (mirrors `ProptestConfig::with_cases`).
const CASES: u64 = 24;

/// Deterministically samples a random graph in the same distribution the
/// original proptest strategy used: `4 ≤ n < max_n`, edge probability in
/// `[0.01, 0.70)`, seed in `[0, 1000)`.
fn sample_graph(rng: &mut SmallRng, max_n: usize) -> Graph {
    let n = rng.gen_range(4..max_n);
    let prob = f64::from(rng.gen_range(1u32..70)) / 100.0;
    let seed = rng.gen_range(0u64..1_000);
    gen::erdos_renyi(n, prob, seed)
}

fn engine(p: usize, algorithm: &str, seed: u64) -> Engine {
    Engine::builder()
        .p(p)
        .algorithm(algorithm)
        .seed(seed)
        .build()
        .expect("valid engine")
}

#[test]
fn congest_listing_is_always_exact() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0001);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 40);
        let p = rng.gen_range(3usize..6);
        let (_, listed) = engine(p, "general", 0xC11).collect(&graph);
        assert!(
            verify_cliques(&graph, p, &listed).is_ok(),
            "case {case}: K_{p} listing diverged from ground truth"
        );
    }
}

#[test]
fn fast_k4_listing_is_always_exact() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0002);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 40);
        let (_, listed) = engine(4, "fast-k4", 0xC11).collect(&graph);
        assert!(
            verify_cliques(&graph, 4, &listed).is_ok(),
            "case {case}: fast K_4 listing diverged from ground truth"
        );
    }
}

#[test]
fn congested_clique_listing_is_always_exact() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0003);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 40);
        let p = rng.gen_range(3usize..6);
        if graph.num_vertices() >= 2 {
            let (_, listed) = engine(p, "congested-clique", 1).collect(&graph);
            assert!(
                verify_cliques(&graph, p, &listed).is_ok(),
                "case {case}: congested-clique K_{p} listing diverged from ground truth"
            );
        }
    }
}

#[test]
fn degeneracy_orientation_covers_with_bounded_out_degree() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0004);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 60);
        let ordering = degeneracy_ordering(&graph);
        let orientation = Orientation::from_degeneracy(&graph);
        assert!(orientation.covers_exactly(&graph), "case {case}");
        assert!(
            orientation.max_out_degree() <= ordering.degeneracy,
            "case {case}"
        );
        // Degeneracy is at most the maximum degree.
        assert!(ordering.degeneracy <= graph.max_degree(), "case {case}");
    }
}

#[test]
fn decomposition_is_an_exact_partition() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0005);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 60);
        let delta = f64::from(rng.gen_range(30u32..80)) / 100.0;
        let d = decompose(&graph, delta, &DecompositionConfig::default(), 1);
        assert!(d.verify(&graph).is_ok(), "case {case}");
        assert!(d.er.len() * 6 <= graph.num_edges().max(1), "case {case}");
        assert_eq!(
            d.em.len() + d.es.len() + d.er.len(),
            graph.num_edges(),
            "case {case}"
        );
    }
}

#[test]
fn listed_cliques_are_cliques() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0006);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 35);
        let (_, listed) = engine(4, "general", 0xC11).collect(&graph);
        for clique in &listed {
            assert_eq!(clique.len(), 4, "case {case}");
            assert!(cliques::is_clique(&graph, clique), "case {case}");
        }
    }
}

#[test]
fn tuple_assignment_covers_every_pair() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0007);
    for case in 0..CASES {
        let k = rng.gen_range(1usize..60);
        let p = rng.gen_range(3usize..7);
        let assignment = TupleAssignment::new(k, p);
        assert!(assignment.num_tuples >= k as u64, "case {case}");
        // Every unordered pair of parts is contained in at least one tuple,
        // so every edge reaches at least one listing node.
        for a in 0..assignment.num_parts {
            for b in a..assignment.num_parts {
                assert!(assignment.tuples_containing(a, b) >= 1, "case {case}");
                assert!(assignment.owners_needing(a, b) >= 1, "case {case}");
            }
        }
    }
}

/// Asserts every structural invariant of the CSR representation that the
/// single-pass subgraph builders promise to preserve:
///
/// * every row (`neighbors(v)`) is strictly increasing — sorted, duplicate
///   free — with in-range endpoints and no self-loops;
/// * adjacency is symmetric: `w ∈ N(v)` iff `v ∈ N(w)` (checked both through
///   `has_edge` and directly on the rows);
/// * the row offsets are consistent (`degree` sums to `2m`, every row slice
///   is addressable — the offsets array is monotone or these slices would
///   panic/overlap);
/// * `edges()` round-trips: it yields exactly `m` lexicographically sorted
///   `u < v` pairs from which `from_edges` rebuilds an identical graph.
fn assert_csr_invariants(g: &Graph, context: &str) {
    let n = g.num_vertices();
    let mut degree_sum = 0usize;
    for v in 0..n as u32 {
        let row = g.neighbors(v);
        assert_eq!(row.len(), g.degree(v), "{context}: degree/row mismatch");
        degree_sum += row.len();
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{context}: row of {v} not strictly increasing: {row:?}"
        );
        for &w in row {
            assert!((w as usize) < n, "{context}: neighbour {w} out of range");
            assert_ne!(w, v, "{context}: self-loop at {v}");
            assert!(g.has_edge(v, w), "{context}: has_edge({v},{w}) false");
            assert!(g.has_edge(w, v), "{context}: has_edge not symmetric");
            assert!(
                g.neighbors(w).binary_search(&v).is_ok(),
                "{context}: adjacency rows not symmetric for {{{v},{w}}}"
            );
        }
    }
    assert_eq!(
        degree_sum,
        2 * g.num_edges(),
        "{context}: offsets inconsistent with num_edges"
    );
    let edges: Vec<(u32, u32)> = g.edges().collect();
    assert_eq!(edges.len(), g.num_edges(), "{context}: edges() count");
    assert!(
        edges.iter().all(|&(u, v)| u < v),
        "{context}: edges() emitted a non-canonical pair"
    );
    assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "{context}: edges() not lexicographically sorted"
    );
    let rebuilt = Graph::from_edges(n, &edges).expect("round-trip build");
    assert_eq!(&rebuilt, g, "{context}: edges() round-trip diverged");
}

/// Samples a random subset of a graph's edges.
fn sample_edge_subset(rng: &mut SmallRng, g: &Graph, keep_prob: f64) -> EdgeSet {
    g.edges()
        .filter(|_| rng.gen_range(0u32..100) < (keep_prob * 100.0) as u32)
        .map(|(u, v)| Edge::new(u, v))
        .collect()
}

#[test]
fn csr_invariants_survive_subgraph_composition_chains() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0009);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 60);
        assert_csr_invariants(&graph, &format!("case {case}: base"));

        // without_edges and without_edges_of split the edge set exactly.
        let keep = sample_edge_subset(&mut rng, &graph, 0.5);
        let dropped = graph.without_edges(&keep);
        let kept = graph.without_edges_of(&dropped);
        assert_csr_invariants(&kept, &format!("case {case}: without_edges_of"));
        assert_csr_invariants(&dropped, &format!("case {case}: without_edges"));
        assert_eq!(
            kept.num_edges() + dropped.num_edges(),
            graph.num_edges(),
            "case {case}: without_edges/without_edges_of must partition the edges"
        );
        assert!(kept.edges().all(|(u, v)| keep.contains_pair(u, v)));

        // Composition chain: a vertex-induced cut of an edge cut, then a
        // second edge removal — the shapes the LIST pipeline produces when it
        // peels cluster edges and bad edges off the remaining graph.
        let n = graph.num_vertices();
        let vertices: Vec<u32> = (0..n as u32)
            .filter(|_| rng.gen_range(0u32..100) < 60)
            .collect();
        let induced = kept.induced_keep_ids(&vertices);
        assert_csr_invariants(&induced, &format!("case {case}: induced∘subgraph"));
        assert_eq!(induced.num_vertices(), n, "case {case}: ids must be kept");
        let peel = sample_edge_subset(&mut rng, &induced, 0.3);
        let peeled = induced.without_edges(&peel);
        assert_csr_invariants(&peeled, &format!("case {case}: without∘induced∘subgraph"));
        assert_eq!(
            peeled.num_edges() + peel.len(),
            induced.num_edges(),
            "case {case}: peeling removed a wrong edge count"
        );

        // Every edge of every composed graph existed in the original.
        for (u, v) in peeled.edges() {
            assert!(graph.has_edge(u, v), "case {case}: phantom edge {u}-{v}");
        }
    }
}

#[test]
fn clique_index_invariants_hold_on_random_graphs() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_000A);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 60);
        let index = cliques::CliqueIndex::build(&graph);
        common::assert_index_invariants(&graph, &index, &format!("case {case}"));
    }
    // And on a graph dense enough to populate the adjacency bitsets (the
    // sampled graphs above typically stay below the degree threshold).
    let dense = gen::erdos_renyi(140, 0.6, 77);
    assert!(
        dense.max_degree() >= 64,
        "workload must reach the threshold"
    );
    let index = cliques::CliqueIndex::build(&dense);
    assert!(
        (0..140u32).any(|v| index.bitset_row(v).is_some()),
        "dense case must actually exercise the bitset audit"
    );
    common::assert_index_invariants(&dense, &index, "dense bitset case");
}

#[test]
fn vertex_partitions_preserve_edge_counts() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0008);
    for case in 0..CASES {
        let graph = sample_graph(&mut rng, 60);
        let parts = rng.gen_range(2u32..8);
        let seed = rng.gen_range(0u64..100);
        let partition = VertexPartition::random(graph.num_vertices(), parts, seed);
        let counts = partition.pairwise_edge_counts(&graph);
        let total: usize = counts.iter().flat_map(|row| row.iter()).sum();
        assert_eq!(total, graph.num_edges(), "case {case}");
    }
}

/// No `K_p` exists once `p > degeneracy + 1`, so every entry point answers
/// empty there, before it sizes anything by `p`. With `p = usize::MAX` a
/// `(p - 1)`-deep candidate arena or a `p`-capacity stack cannot even be
/// requested.
#[test]
fn oversized_p_answers_empty_instead_of_panicking() {
    let graph = gen::erdos_renyi(30, 0.3, 4);
    let index = cliques::CliqueIndex::build(&graph);
    let (a, b) = graph.edges().next().expect("graph has edges");
    let derived = graph
        .apply_edge_batch(&EdgeBatch::new(&[], &[(a, b)]).unwrap())
        .unwrap()
        .0;
    for p in [index.degeneracy() + 2, usize::MAX] {
        assert!(index.for_each_clique_while(&graph, p, |_| false), "p={p}");
        assert_eq!(cliques::count_cliques(&graph, p), 0, "p={p}");
        assert!(
            cliques::cliques_containing_edge(&graph, p, a, b).is_empty(),
            "p={p}"
        );
        let mut enumerator = cliques::EdgeCliqueEnumerator::new(&graph, p);
        for (u, w) in graph.edges() {
            assert!(
                enumerator.for_each_containing_edge_while(u, w, graph.neighbors(u), |_| false),
                "p={p}: enumerator visited a clique through {u}-{w}"
            );
        }
        let old = GraphSnapshot::builder(graph.clone())
            .prepare_p(p)
            .build()
            .unwrap()
            .into_shared();
        let new = GraphSnapshot::builder(derived.clone())
            .prepare_p(p)
            .build()
            .unwrap();
        let queries = [
            (QueryBuilder::new().count(), QueryOutcome::Count(0)),
            (
                QueryBuilder::new().count().budget(5),
                QueryOutcome::Count(0),
            ),
            (QueryBuilder::new().first(5), QueryOutcome::Cliques(vec![])),
            (
                QueryBuilder::new().containing_vertex(a),
                QueryOutcome::Cliques(vec![]),
            ),
            (
                QueryBuilder::new().containing_edge(a, b),
                QueryOutcome::Cliques(vec![]),
            ),
            (QueryBuilder::new().exists(), QueryOutcome::Exists(false)),
        ];
        for grant in [Parallelism::Off, Parallelism::Threads(2)] {
            let cell = format!("p={p} {grant:?}");
            let service = QueryService::with_parallelism(old.clone(), grant);
            for (builder, want) in &queries {
                let query = builder.clone().p(p).build(&old).unwrap();
                let response = service.execute(&query).expect("answered");
                assert_eq!(&response.outcome, want, "{cell}: {:?}", query.kind());
            }
            let delta = delta_cliques(&old, &new, p, grant).unwrap();
            assert!(delta.is_empty(), "{cell}: delta");
            let engine = Engine::builder()
                .p(p)
                .algorithm("naive-broadcast")
                .parallelism(grant)
                .build()
                .unwrap();
            assert_eq!(engine.count(&graph).1, 0, "{cell}: naive-broadcast");
            let general = Engine::builder()
                .p(p)
                .algorithm("general")
                .parallelism(grant)
                .build()
                .unwrap();
            assert_eq!(general.count(&graph).1, 0, "{cell}: general");
            let congested = Engine::builder()
                .p(p)
                .algorithm("congested-clique")
                .parallelism(grant)
                .build()
                .unwrap();
            assert_eq!(congested.count(&graph).1, 0, "{cell}: congested-clique");
        }
    }
}
