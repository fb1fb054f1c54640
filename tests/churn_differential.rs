//! The churn differential battery: "incremental must equal recompute",
//! enforced end to end.
//!
//! Each chain takes a workload graph (Erdős–Rényi / planted cliques / R-MAT),
//! applies a small batch (chosen to stay under the rebuild threshold — the
//! incremental strategy) and then a large one (over the threshold — the
//! rebuild strategy), and holds every derived snapshot to three differential
//! contracts, for every clique size `p ∈ {3,4,5}` and every thread grant
//! `{Off, 1, 2, 8}`:
//!
//! (a) **snapshot bytes**: the derived snapshot — CSR graph, degeneracy
//!     ordering, oriented DAG, adjacency bitsets, shard plans, content
//!     identity — equals a from-scratch `GraphSnapshot` build of the mutated
//!     edge list (`PartialEq` over the full state), and its index passes the
//!     shared structural audit (`common::assert_index_invariants`);
//! (b) **delta**: `delta_cliques` equals the set difference of the full
//!     listings on the two snapshots, byte-identical at every thread grant;
//! (c) **queries**: `QueryService` payloads on the derived snapshot are
//!     byte-identical to a service over a cold rebuild, at every grant, with
//!     the cache keyed by the new content identity.
//!
//! A final regression pins the no-op guarantee: ineffective churn preserves
//! the content identity, so previously cached results keep hitting.

mod common;

use distributed_clique_listing::cliquelist::Parallelism;
use distributed_clique_listing::graphcore::{cliques, gen, Clique, EdgeBatch, Graph};
use distributed_clique_listing::query::{
    delta_cliques, ChurnStrategy, GraphSnapshot, QueryBuilder, QueryService,
};

const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
const PS: [usize; 3] = [3, 4, 5];
const SEEDS: [u64; 2] = [1, 2];

/// The thread grants every differential assertion runs under, each compared
/// against the same sequential baseline.
fn grants() -> [Parallelism; 4] {
    [
        Parallelism::Off,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ]
}

/// The three workload families of the battery.
fn workloads(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("er", gen::erdos_renyi(48, 0.18, seed)),
        ("planted", gen::planted_cliques(60, 0.05, 2, 6, seed).0),
        ("rmat", gen::rmat(6, 4, RMAT_PROBS, seed)),
    ]
}

/// A small, deterministic batch: a handful of deletions spread over the edge
/// list plus a handful of insertions drawn from a perturbation generator.
/// Sized to stay well under `REBUILD_CHURN_PPM` on every workload.
fn small_batch(graph: &Graph, seed: u64) -> EdgeBatch {
    let deletes: Vec<(u32, u32)> = graph.edges().step_by(17).take(6).collect();
    let inserts: Vec<(u32, u32)> = gen::erdos_renyi(graph.num_vertices(), 0.1, seed ^ 0xABC)
        .edges()
        .filter(|&(u, v)| !graph.has_edge(u, v))
        .take(6)
        .collect();
    EdgeBatch::new(&inserts, &deletes).expect("disjoint by construction")
}

/// A large batch: every third edge deleted (≈ 333 333 ppm churn, over the
/// rebuild threshold on any graph).
fn large_batch(graph: &Graph) -> EdgeBatch {
    let deletes: Vec<(u32, u32)> = graph.edges().step_by(3).collect();
    EdgeBatch::new(&[], &deletes).expect("deletes only")
}

/// Contract (b)'s reference: the set difference of the full listings.
fn reference_delta(old: &Graph, new: &Graph, p: usize) -> (Vec<Clique>, Vec<Clique>) {
    let before = cliques::list_cliques(old, p);
    let after = cliques::list_cliques(new, p);
    let created = after
        .iter()
        .filter(|c| !before.contains(c))
        .cloned()
        .collect();
    let destroyed = before
        .iter()
        .filter(|c| !after.contains(c))
        .cloned()
        .collect();
    (created, destroyed)
}

/// Contract (c)'s probe set: one of each query kind the service answers.
fn probe_queries(
    snapshot: &GraphSnapshot,
    p: usize,
) -> Vec<distributed_clique_listing::query::Query> {
    let builders = [
        QueryBuilder::new().p(p).count(),
        QueryBuilder::new().p(p).first(10),
        QueryBuilder::new().p(p).containing_vertex(3),
        QueryBuilder::new().p(p).exists(),
    ];
    builders
        .into_iter()
        .map(|b| b.build(snapshot).expect("prepared p"))
        .collect()
}

#[test]
fn churn_differential_battery() {
    let mut cells = 0usize;
    let mut strategies_seen = Vec::new();
    for seed in SEEDS {
        for (name, graph) in workloads(seed) {
            for p in PS {
                let context = format!("{name} seed {seed} p {p}");
                let old = GraphSnapshot::build(graph.clone());

                // Two-step chain: small batch (incremental), then a large
                // one on the result (rebuild).
                let batch1 = small_batch(&graph, seed);
                let (mid, report1) = old.apply_batch(&batch1).expect("in range");
                assert_eq!(
                    report1.strategy,
                    ChurnStrategy::Incremental,
                    "{context}: small batch must take the incremental path \
                     (churn {} ppm)",
                    report1.churn_ppm
                );
                let batch2 = large_batch(mid.graph());
                let (new, report2) = mid.apply_batch(&batch2).expect("in range");
                assert_eq!(
                    report2.strategy,
                    ChurnStrategy::Rebuild,
                    "{context}: large batch must take the rebuild path \
                     (churn {} ppm)",
                    report2.churn_ppm
                );
                strategies_seen.push(report1.strategy);
                strategies_seen.push(report2.strategy);

                // (a) Snapshot bytes equal a from-scratch build, and the
                // patched index passes the shared structural audit.
                for (label, derived) in [("incremental", &mid), ("rebuild", &new)] {
                    let scratch = GraphSnapshot::build(derived.graph().clone());
                    assert_eq!(
                        derived, &scratch,
                        "{context}: {label} snapshot diverged from scratch"
                    );
                    assert_eq!(derived.id(), scratch.id(), "{context}: {label} id");
                    common::assert_index_invariants(
                        derived.graph(),
                        derived.index(),
                        &format!("{context}: {label}"),
                    );
                }
                assert_ne!(old.id(), mid.id(), "{context}: batch1 must change the id");
                assert_ne!(mid.id(), new.id(), "{context}: batch2 must change the id");

                // (b)+(c) at every thread grant.
                let baseline_delta1 = delta_cliques(&old, &mid, p, Parallelism::Off).unwrap();
                let baseline_delta2 = delta_cliques(&mid, &new, p, Parallelism::Off).unwrap();
                let (created1, destroyed1) = reference_delta(old.graph(), mid.graph(), p);
                let (created2, destroyed2) = reference_delta(mid.graph(), new.graph(), p);
                let queries = probe_queries(&new, p);
                let cold =
                    QueryService::new(GraphSnapshot::build(new.graph().clone()).into_shared());
                let cold_payloads: Vec<String> = queries
                    .iter()
                    .map(|q| cold.execute(q).expect("valid").to_json())
                    .collect();
                for grant in grants() {
                    cells += 1;
                    let cell = format!("{context} grant {grant:?}");

                    // (b) delta == full-listing set difference, and equal to
                    // the sequential baseline byte for byte.
                    let delta1 = delta_cliques(&old, &mid, p, grant).unwrap();
                    assert_eq!(delta1.created, created1, "{cell}: created (batch1)");
                    assert_eq!(delta1.destroyed, destroyed1, "{cell}: destroyed (batch1)");
                    assert_eq!(delta1, baseline_delta1, "{cell}: grant changed the delta");
                    let delta2 = delta_cliques(&mid, &new, p, grant).unwrap();
                    assert_eq!(delta2.created, created2, "{cell}: created (batch2)");
                    assert_eq!(delta2.destroyed, destroyed2, "{cell}: destroyed (batch2)");
                    assert_eq!(delta2, baseline_delta2, "{cell}: grant changed the delta");

                    // (c) query payloads on the derived snapshot match the
                    // cold-rebuild service, and the cache keys on the new id.
                    let service = QueryService::with_parallelism(new.clone().into_shared(), grant);
                    for (query, cold_payload) in queries.iter().zip(&cold_payloads) {
                        let first = service.execute(query).expect("valid");
                        assert!(!first.report.cache_hit, "{cell}: cache must start cold");
                        assert_eq!(
                            first.to_json(),
                            *cold_payload,
                            "{cell}: payload diverged from cold rebuild"
                        );
                        let second = service.execute(query).expect("valid");
                        assert!(
                            second.report.cache_hit,
                            "{cell}: repeat must hit the cache keyed by the new id"
                        );
                        assert_eq!(second.to_json(), *cold_payload, "{cell}: cached payload");
                    }
                }
            }
        }
    }
    assert!(cells >= 30, "battery must cover ≥ 30 cells, got {cells}");
    assert!(
        strategies_seen.contains(&ChurnStrategy::Incremental)
            && strategies_seen.contains(&ChurnStrategy::Rebuild),
        "battery must exercise both non-trivial strategies"
    );
}

#[test]
fn noop_churn_preserves_identity_and_cache() {
    let graph = gen::erdos_renyi(40, 0.2, 5);
    let old = GraphSnapshot::build(graph.clone()).into_shared();
    let service = QueryService::new(old.clone());
    let query = QueryBuilder::new().p(3).count().build(&old).unwrap();
    assert!(!service.execute(&query).unwrap().report.cache_hit);

    // An empty batch and a fully ineffective batch both derive snapshots
    // with the *same* content identity…
    let (same_empty, report) = old.apply_batch(&EdgeBatch::empty()).unwrap();
    assert_eq!(report.strategy, ChurnStrategy::Noop);
    assert_eq!(same_empty.id(), old.id());
    let existing: Vec<(u32, u32)> = graph.edges().take(3).collect();
    let missing: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
        .filter(|&(u, v)| !graph.has_edge(u, v))
        .take(3)
        .collect();
    let ineffective = EdgeBatch::new(&existing, &missing).unwrap();
    assert!(!ineffective.is_empty());
    let (same, report) = old.apply_batch(&ineffective).unwrap();
    assert_eq!(report.strategy, ChurnStrategy::Noop);
    assert_eq!(report.num_changes(), 0);
    assert_eq!(same.id(), old.id(), "ineffective churn must keep the id");
    assert_eq!(&same, &*old);

    // …so a query built against the derived snapshot hits the cache entry
    // the pre-churn query populated: cache reuse across no-op churn.
    let requery = QueryBuilder::new().p(3).count().build(&same).unwrap();
    let response = service.execute(&requery).unwrap();
    assert!(
        response.report.cache_hit,
        "no-op churn must not invalidate cached results"
    );

    // An effective batch, by contrast, changes the id and the old service
    // rejects queries built against the derived snapshot.
    let effective = EdgeBatch::new(&[], &[graph.edges().next().unwrap()]).unwrap();
    let (changed, _) = old.apply_batch(&effective).unwrap();
    assert_ne!(changed.id(), old.id());
    let stale = QueryBuilder::new().p(3).count().build(&changed).unwrap();
    assert!(
        service.execute(&stale).is_err(),
        "a changed identity must not silently serve stale cache entries"
    );
}
