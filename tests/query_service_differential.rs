//! The differential battery for the snapshot/query subsystem.
//!
//! The query service promises **byte-identical** batch responses — every
//! [`QueryResponse::to_json`] payload, in request order — regardless of
//!
//! * the thread grant (`Parallelism::Off`, `Threads(1)`, `Threads(2)`,
//!   `Threads(8)`, and `Auto`, which resolves the `CLIQUELIST_THREADS`
//!   environment knob that the CI perf matrix sweeps over 1 and 4), and
//! * the cache state (a cold service and a warm replay of the same batch).
//!
//! This file checks that promise differentially across workload families and
//! mixed query batches, whose cache misses fan out through `ordered_merge`
//! under every grant above one thread. It pins the cache counters and
//! reports of a batch that repeats queries, which are the same at every
//! grant too. It also pins the cache-identity contract at the
//! workspace surface: any change to the snapshot, the query parameters or
//! the seed must miss the cache, and only byte-identical requests may hit.
//! Finally it holds the three sources of a count equal (the sharded and
//! inline count-only paths and the visiting reference), holds snapshots on
//! either enumeration kernel to the recursive kernel's listing, and pins the
//! typed, uncached count-overflow error.

use distributed_clique_listing::cliquelist::Parallelism;
use distributed_clique_listing::graphcore::cliques::{self, KernelChoice};
use distributed_clique_listing::graphcore::{gen, Graph};
use distributed_clique_listing::query::{
    GraphSnapshot, Query, QueryBuilder, QueryError, QueryOutcome, QueryResponse, QueryService,
};
use std::sync::Arc;

/// Thread grants of the matrix. `Off` is the reference; `Threads(n)` models
/// an explicit `CLIQUELIST_THREADS=n` grant (the env knob resolves to the
/// same setting through `Parallelism::Auto`); 8 exceeds the cores of most
/// hosts, where the fan-out rule caps it at the host.
const GRANTS: [Parallelism; 5] = [
    Parallelism::Off,
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(8),
    Parallelism::Auto,
];

/// The workload families of the matrix — dense, planted and bipartite-ish
/// shapes so batches mix empty and heavily populated answers.
fn workloads() -> Vec<(String, Graph)> {
    vec![
        ("er(60,0.3)".to_string(), gen::erdos_renyi(60, 0.3, 9)),
        (
            "planted(70,p5)".to_string(),
            gen::planted_cliques(70, 0.05, 3, 5, 17).0,
        ),
        (
            "multipartite(60,4,0.6)".to_string(),
            gen::multipartite(60, 4, 0.6, 23),
        ),
    ]
}

/// A mixed batch touching every query kind, several clique sizes and a
/// couple of seeds.
fn mixed_batch(snapshot: &Arc<GraphSnapshot>) -> Vec<Query> {
    let graph = snapshot.graph();
    let n = graph.num_vertices() as u32;
    let mut queries = vec![
        QueryBuilder::new().p(3).count().build(snapshot).unwrap(),
        QueryBuilder::new().p(4).count().build(snapshot).unwrap(),
        QueryBuilder::new().p(5).count().build(snapshot).unwrap(),
        QueryBuilder::new().p(3).first(10).build(snapshot).unwrap(),
        QueryBuilder::new().p(4).first(1).build(snapshot).unwrap(),
        QueryBuilder::new().p(3).exists().build(snapshot).unwrap(),
        QueryBuilder::new().p(5).exists().build(snapshot).unwrap(),
        QueryBuilder::new()
            .p(4)
            .seed(7)
            .count()
            .build(snapshot)
            .unwrap(),
    ];
    for vertex in [0, n / 2, n - 1] {
        queries.push(
            QueryBuilder::new()
                .p(3)
                .containing_vertex(vertex)
                .build(snapshot)
                .unwrap(),
        );
    }
    for (u, v) in graph.edges().take(6) {
        queries.push(
            QueryBuilder::new()
                .p(4)
                .containing_edge(u, v)
                .build(snapshot)
                .unwrap(),
        );
    }
    queries
}

fn payloads(responses: &[QueryResponse]) -> Vec<String> {
    responses.iter().map(QueryResponse::to_json).collect()
}

/// The core differential: for every workload, every thread grant and both
/// cache temperatures reproduce the `Parallelism::Off` cold run byte for
/// byte, in request order.
#[test]
fn batch_payloads_are_byte_identical_across_grants_and_cache_states() {
    for (label, graph) in workloads() {
        let snapshot = GraphSnapshot::build(graph).into_shared();
        let batch = mixed_batch(&snapshot);
        let reference = payloads(
            &QueryService::with_parallelism(snapshot.clone(), Parallelism::Off)
                .execute_batch(&batch)
                .unwrap(),
        );
        for grant in GRANTS {
            let service = QueryService::with_parallelism(snapshot.clone(), grant);
            let cold = payloads(&service.execute_batch(&batch).unwrap());
            assert_eq!(cold, reference, "{label}, {grant:?}: cold run diverged");
            let warm = payloads(&service.execute_batch(&batch).unwrap());
            assert_eq!(warm, reference, "{label}, {grant:?}: warm run diverged");
            assert!(
                service
                    .execute_batch(&batch)
                    .unwrap()
                    .iter()
                    .all(|r| r.report.cache_hit),
                "{label}, {grant:?}: a warm replay must be served from cache"
            );
            // Clearing the cache forces recomputation — still identical.
            service.clear_cache();
            let recomputed = payloads(&service.execute_batch(&batch).unwrap());
            assert_eq!(recomputed, reference, "{label}, {grant:?}: after clear");
        }
    }
}

/// Single-query execution and batch execution agree payload for payload —
/// the batch fan-out must not change any answer.
#[test]
fn single_and_batch_execution_agree() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(55, 0.3, 31)).into_shared();
    let batch = mixed_batch(&snapshot);
    let batched = QueryService::new(snapshot.clone())
        .execute_batch(&batch)
        .unwrap();
    let singles = QueryService::new(snapshot.clone());
    for (query, response) in batch.iter().zip(&batched) {
        assert_eq!(
            singles.execute(query).unwrap().to_json(),
            response.to_json(),
            "single/batch divergence for {}",
            query.canonical_identity()
        );
    }
}

/// A query repeated within one batch is computed once, at its first
/// occurrence; every later occurrence, and every query of the batch run
/// again, is a cache hit answered on the calling thread. That holds at every
/// grant, so the reports (`cache_hit`, `shards`) and the cache counters are
/// the same at any fan-out, not only the payloads.
#[test]
fn repeats_within_a_batch_are_computed_once_at_every_grant() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(60, 0.3, 9)).into_shared();
    let (u, v) = snapshot.graph().edges().next().unwrap();
    let count = QueryBuilder::new().p(4).count().build(&snapshot).unwrap();
    let first = QueryBuilder::new().p(3).first(5).build(&snapshot).unwrap();
    let edge = QueryBuilder::new()
        .p(3)
        .containing_edge(u, v)
        .build(&snapshot)
        .unwrap();
    let batch = [
        count.clone(),
        first.clone(),
        edge.clone(),
        edge,
        first,
        count,
    ];
    let shape = |responses: &[QueryResponse]| -> Vec<(bool, usize)> {
        responses
            .iter()
            .map(|r| (r.report.cache_hit, r.report.shards))
            .collect()
    };
    let reference = payloads(
        &QueryService::with_parallelism(snapshot.clone(), Parallelism::Off)
            .execute_batch(&batch)
            .unwrap(),
    );
    for grant in [
        Parallelism::Off,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let service = QueryService::with_parallelism(snapshot.clone(), grant);
        let cold = service.execute_batch(&batch).unwrap();
        assert_eq!(payloads(&cold), reference, "{grant:?}: cold payloads");
        assert_eq!(
            shape(&cold),
            [
                (false, 1),
                (false, 1),
                (false, 1),
                (true, 0),
                (true, 0),
                (true, 0)
            ],
            "{grant:?}: each repeat must hit its first occurrence's entry"
        );
        let stats = service.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (3, 3, 3),
            "{grant:?}: cold counters"
        );
        let warm = service.execute_batch(&batch).unwrap();
        assert_eq!(payloads(&warm), reference, "{grant:?}: warm payloads");
        assert_eq!(
            shape(&warm),
            [(true, 0); 6],
            "{grant:?}: warm repeat of the batch"
        );
        let stats = service.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (9, 3, 3),
            "{grant:?}: warm counters"
        );
    }
}

/// The cache-identity contract at the workspace surface: byte-identical
/// requests hit; any change to snapshot, query shape or seed misses.
#[test]
fn cache_hits_require_the_full_identity_to_match() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(40, 0.35, 3)).into_shared();
    let service = QueryService::new(snapshot.clone());

    let base = QueryBuilder::new().p(4).count().build(&snapshot).unwrap();
    assert!(!service.execute(&base).unwrap().report.cache_hit);
    assert!(
        service.execute(&base).unwrap().report.cache_hit,
        "identical request must hit"
    );

    // A different query kind, parameter or seed each miss.
    let variants = [
        QueryBuilder::new().p(3).count().build(&snapshot).unwrap(),
        QueryBuilder::new().p(4).exists().build(&snapshot).unwrap(),
        QueryBuilder::new().p(4).first(2).build(&snapshot).unwrap(),
        QueryBuilder::new()
            .p(4)
            .seed(1)
            .count()
            .build(&snapshot)
            .unwrap(),
        QueryBuilder::new()
            .p(4)
            .containing_vertex(0)
            .build(&snapshot)
            .unwrap(),
    ];
    for variant in &variants {
        assert!(
            !service.execute(variant).unwrap().report.cache_hit,
            "{} must miss",
            variant.canonical_identity()
        );
    }

    // A structurally different snapshot is a different universe: the query
    // does not even execute against the old service, and a fresh service
    // over the changed graph starts cold.
    let grown = GraphSnapshot::build(gen::erdos_renyi(40, 0.35, 4)).into_shared();
    assert_ne!(snapshot.id(), grown.id());
    let grown_query = QueryBuilder::new().p(4).count().build(&grown).unwrap();
    assert!(matches!(
        service.execute(&grown_query).unwrap_err(),
        QueryError::SnapshotMismatch { .. }
    ));
    let grown_service = QueryService::new(grown.clone());
    assert!(
        !grown_service
            .execute(&grown_query)
            .unwrap()
            .report
            .cache_hit
    );
}

/// Builder validation at the workspace surface: every misuse is a typed
/// error, never a panic, and valid requests survive the round trip.
#[test]
fn builder_misuse_is_typed_at_the_workspace_surface() {
    let snapshot = GraphSnapshot::build(gen::path_graph(10)).into_shared();
    let cases: Vec<(QueryError, Result<Query, QueryError>)> = vec![
        (
            QueryError::MissingKind,
            QueryBuilder::new().p(3).build(&snapshot),
        ),
        (
            QueryError::MissingCliqueSize,
            QueryBuilder::new().exists().build(&snapshot),
        ),
        (
            QueryError::CliqueSizeTooSmall { p: 2 },
            QueryBuilder::new().p(2).count().build(&snapshot),
        ),
        (
            QueryError::ZeroLimit,
            QueryBuilder::new().p(3).first(0).build(&snapshot),
        ),
        (
            QueryError::SelfLoopEdge { vertex: 4 },
            QueryBuilder::new()
                .p(3)
                .containing_edge(4, 4)
                .build(&snapshot),
        ),
        (
            QueryError::VertexOutOfRange {
                vertex: 10,
                num_vertices: 10,
            },
            QueryBuilder::new()
                .p(3)
                .containing_vertex(10)
                .build(&snapshot),
        ),
        (
            QueryError::ConflictingKinds {
                first: "exists",
                second: "count-kp",
            },
            QueryBuilder::new().p(3).exists().count().build(&snapshot),
        ),
        (
            QueryError::UnpreparedCliqueSize {
                p: 7,
                prepared: vec![3, 4, 5],
            },
            QueryBuilder::new().p(7).count().build(&snapshot),
        ),
    ];
    for (expected, got) in cases {
        assert_eq!(got, Err(expected));
    }
    // The batch pre-validation surfaces the same typed errors.
    let foreign_snapshot = GraphSnapshot::build(gen::complete_graph(6)).into_shared();
    let foreign = QueryBuilder::new()
        .p(3)
        .count()
        .build(&foreign_snapshot)
        .unwrap();
    let local = QueryBuilder::new().p(3).count().build(&snapshot).unwrap();
    let service = QueryService::new(snapshot);
    let err = service.execute_batch(&[local, foreign]).unwrap_err();
    assert!(matches!(err, QueryError::SnapshotMismatch { .. }));
    // Nothing from the rejected batch was executed or cached.
    assert_eq!(service.cache_stats().entries, 0);
}

/// The per-query work budget: exhaustion is a typed error, replayed
/// identically, and never cached; sufficient budgets answer exactly like
/// their unbounded twins under a separate cache identity.
#[test]
fn work_budgets_are_typed_deterministic_and_uncached() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(50, 0.3, 19)).into_shared();
    let service = QueryService::new(snapshot.clone());
    let unbounded = QueryBuilder::new().p(4).count().build(&snapshot).unwrap();
    let QueryOutcome::Count(total) = service.execute(&unbounded).unwrap().outcome else {
        panic!("count query must yield a count");
    };
    assert!(
        total >= 3,
        "workload must have cliques for the budget to meter"
    );

    // An exactly-sufficient budget answers identically to the unbounded
    // query — but under its own cache identity, so it misses cold.
    let sufficient = QueryBuilder::new()
        .p(4)
        .budget(total)
        .count()
        .build(&snapshot)
        .unwrap();
    let cold = service.execute(&sufficient).unwrap();
    assert!(!cold.report.cache_hit);
    assert_eq!(cold.outcome, QueryOutcome::Count(total));
    let entries = service.cache_stats().entries;
    assert_eq!(entries, 2, "budgeted and unbounded entries are distinct");
    assert!(service.execute(&sufficient).unwrap().report.cache_hit);

    // One short: a typed error, deterministic on replay, never cached.
    let short = QueryBuilder::new()
        .p(4)
        .budget(total - 1)
        .count()
        .build(&snapshot)
        .unwrap();
    for attempt in 0..2 {
        assert_eq!(
            service.execute(&short).unwrap_err(),
            QueryError::BudgetExceeded { budget: total - 1 },
            "attempt {attempt}"
        );
    }
    assert_eq!(
        service.cache_stats().entries,
        entries,
        "failures must not be cached"
    );

    // Budgets meter *visits*, not matches: `exists` stops at the first
    // clique, so a budget of 1 always suffices on a populated graph.
    let exists = QueryBuilder::new()
        .p(4)
        .budget(1)
        .exists()
        .build(&snapshot)
        .unwrap();
    assert_eq!(
        service.execute(&exists).unwrap().outcome,
        QueryOutcome::Exists(true)
    );
    // Likewise first-k visits at most k cliques, so budget(k) suffices...
    let budgeted_first = QueryBuilder::new()
        .p(4)
        .budget(3)
        .first(3)
        .build(&snapshot)
        .unwrap();
    let plain_first = QueryBuilder::new().p(4).first(3).build(&snapshot).unwrap();
    assert_eq!(
        service.execute(&budgeted_first).unwrap().outcome,
        service.execute(&plain_first).unwrap().outcome
    );
    // ...and one less trips the meter.
    let tight = QueryBuilder::new()
        .p(4)
        .budget(2)
        .first(3)
        .build(&snapshot)
        .unwrap();
    assert_eq!(
        service.execute(&tight).unwrap_err(),
        QueryError::BudgetExceeded { budget: 2 }
    );
}

/// The three places a count comes from agree at every explicit grant: a lone
/// `execute` (summed shard by shard over the snapshot's plan once the grant
/// allows more than one thread), the same query inside a batch (one inline
/// count-only call) and the visiting reference `cliques::count_cliques`.
#[test]
fn the_three_count_paths_agree_across_grants() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(60, 0.3, 9)).into_shared();
    for p in [3usize, 4, 5] {
        let want = QueryOutcome::Count(cliques::count_cliques(snapshot.graph(), p) as u64);
        let count = QueryBuilder::new().p(p).count().build(&snapshot).unwrap();
        let batch = [
            count.clone(),
            QueryBuilder::new().p(p).exists().build(&snapshot).unwrap(),
        ];
        for grant in [
            Parallelism::Off,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let service = QueryService::with_parallelism(snapshot.clone(), grant);
            let lone = service.execute(&count).unwrap();
            assert_eq!(lone.outcome, want, "p={p}, {grant:?}: lone execute");
            if grant.threads() > 1 {
                assert!(
                    lone.report.shards > 1,
                    "p={p}, {grant:?}: the lone count did not run shard by shard"
                );
            }
            service.clear_cache();
            let batched = service.execute_batch(&batch).unwrap();
            assert_eq!(batched[0].outcome, want, "p={p}, {grant:?}: in a batch");
            assert_eq!(batched[0].report.shards, 1, "p={p}, {grant:?}: inline");
        }
    }
}

/// The snapshot runs the kernel its index picks, so one snapshot on each
/// side of the choice must answer every query that enumerates from the
/// roots — counts with and without a budget, prefixes and existence — with
/// the listing of the forced recursive kernel, at `Off` and at a grant that
/// sums the count shard by shard. The recursive side is a random bipartite
/// graph with two planted `K_5`s (candidate density 0.012: the bipartite
/// candidate sets hold no edge; 65 `K_3`s, 12 `K_4`s), the trie side
/// `er(70,0.6)` (density 0.68).
#[test]
fn snapshots_on_either_kernel_answer_with_the_recursive_listing() {
    let planted = [[5u32, 22, 47, 80, 113], [10, 31, 58, 91, 116]];
    let edges: Vec<(u32, u32)> = planted
        .iter()
        .flat_map(|c| (0..5).flat_map(move |i| (i + 1..5).map(move |j| (c[i], c[j]))))
        .collect();
    let sparse = gen::multipartite(120, 2, 0.3, 13)
        .with_edges_added(&edges)
        .unwrap();
    for (graph, kernel) in [
        (sparse, KernelChoice::Recursive),
        (gen::erdos_renyi(70, 0.6, 13), KernelChoice::Trie),
    ] {
        let snapshot = GraphSnapshot::build(graph).into_shared();
        let (graph, index) = (snapshot.graph(), snapshot.index());
        assert_eq!(index.kernel(), kernel);
        for p in [3usize, 4] {
            let mut recursive = Vec::new();
            index.for_each_clique_while_forced(graph, p, KernelChoice::Recursive, |c| {
                recursive.push(c.to_vec());
                true
            });
            let total = recursive.len() as u64;
            let first = |k: usize| {
                let mut prefix = recursive[..k.min(recursive.len())].to_vec();
                prefix.sort_unstable();
                QueryOutcome::Cliques(prefix)
            };
            let cases = [
                (QueryBuilder::new().p(p).count(), QueryOutcome::Count(total)),
                (
                    QueryBuilder::new().p(p).budget(total).count(),
                    QueryOutcome::Count(total),
                ),
                (QueryBuilder::new().p(p).first(1), first(1)),
                (QueryBuilder::new().p(p).first(40), first(40)),
                (
                    QueryBuilder::new().p(p).exists(),
                    QueryOutcome::Exists(total > 0),
                ),
            ];
            for grant in [Parallelism::Off, Parallelism::Threads(2)] {
                let service = QueryService::with_parallelism(snapshot.clone(), grant);
                for (builder, want) in &cases {
                    let query = builder.clone().build(&snapshot).unwrap();
                    assert_eq!(
                        &service.execute(&query).unwrap().outcome,
                        want,
                        "{kernel}, p={p}, {grant:?}: {query:?}"
                    );
                }
            }
        }
    }
}

/// A count past `u64::MAX` is a typed error, the same on a replay, and never
/// cached; the largest counts that fit are exact. Both complete graphs run
/// the kernel their index picks, the trie here: its binomial shortcut
/// answers them at once, where visiting would never finish.
#[test]
fn count_overflow_is_typed_deterministic_and_uncached() {
    let prepared = |n: usize, p: usize| {
        GraphSnapshot::builder(gen::complete_graph(n))
            .prepare_p(p)
            .build()
            .unwrap()
            .into_shared()
    };
    // C(66, 33) fits in a u64; a naive u64 binomial recurrence wraps on it.
    let fits = prepared(66, 33);
    // C(70, 35) ≈ 1.12e20 does not fit.
    let overflows = prepared(70, 35);
    assert_eq!(fits.index().kernel(), KernelChoice::Trie);
    assert_eq!(overflows.index().count_cliques(overflows.graph(), 35), None);
    for grant in [Parallelism::Off, Parallelism::Threads(2)] {
        let service = QueryService::with_parallelism(fits.clone(), grant);
        let count = QueryBuilder::new().p(33).count().build(&fits).unwrap();
        assert_eq!(
            service.execute(&count).unwrap().outcome,
            QueryOutcome::Count(7_219_428_434_016_265_740),
            "{grant:?}"
        );
        let service = QueryService::with_parallelism(overflows.clone(), grant);
        let count = QueryBuilder::new().p(35).count().build(&overflows).unwrap();
        let entries = service.cache_stats().entries;
        for attempt in 0..2 {
            let err = service.execute(&count).unwrap_err();
            assert_eq!(
                err,
                QueryError::CountOverflow { p: 35 },
                "{grant:?}, attempt {attempt}"
            );
            assert!(err.to_string().contains("35-cliques"), "{err}");
        }
        assert_eq!(
            service.cache_stats().entries,
            entries,
            "{grant:?}: overflows must not be cached"
        );
    }
}

/// Budgeted batches across the full grant matrix: successful payloads are
/// byte-identical, and an exhausted budget surfaces the same typed error —
/// for the first exhausted query in *request* order — at every grant.
#[test]
fn budget_exhaustion_is_identical_across_grants() {
    let snapshot = GraphSnapshot::build(gen::erdos_renyi(45, 0.3, 11)).into_shared();
    let probe = QueryService::new(snapshot.clone());
    let count_query = QueryBuilder::new().p(3).count().build(&snapshot).unwrap();
    let QueryOutcome::Count(total) = probe.execute(&count_query).unwrap().outcome else {
        panic!("count query must yield a count");
    };
    assert!(total >= 2, "workload must have at least two triangles");

    // All-sufficient budgets: byte-identical payloads at every grant and
    // cache temperature, like any other batch.
    let good = vec![
        QueryBuilder::new()
            .p(3)
            .budget(total)
            .count()
            .build(&snapshot)
            .unwrap(),
        QueryBuilder::new()
            .p(3)
            .budget(5)
            .first(5)
            .build(&snapshot)
            .unwrap(),
        QueryBuilder::new()
            .p(3)
            .budget(1)
            .exists()
            .build(&snapshot)
            .unwrap(),
    ];
    let reference = payloads(
        &QueryService::with_parallelism(snapshot.clone(), Parallelism::Off)
            .execute_batch(&good)
            .unwrap(),
    );
    for grant in GRANTS {
        let service = QueryService::with_parallelism(snapshot.clone(), grant);
        let cold = payloads(&service.execute_batch(&good).unwrap());
        assert_eq!(cold, reference, "{grant:?}: cold budgeted batch diverged");
        let warm = payloads(&service.execute_batch(&good).unwrap());
        assert_eq!(warm, reference, "{grant:?}: warm budgeted batch diverged");
    }

    // Two exhausted queries with distinct budgets: every grant reports the
    // earlier one, even though a later worker may finish (and fail) first.
    let mixed = vec![
        QueryBuilder::new().p(3).count().build(&snapshot).unwrap(),
        QueryBuilder::new()
            .p(3)
            .budget(total - 1)
            .count()
            .build(&snapshot)
            .unwrap(),
        QueryBuilder::new()
            .p(3)
            .budget(1)
            .first(2)
            .build(&snapshot)
            .unwrap(),
    ];
    for grant in GRANTS {
        let service = QueryService::with_parallelism(snapshot.clone(), grant);
        assert_eq!(
            service.execute_batch(&mixed).unwrap_err(),
            QueryError::BudgetExceeded { budget: total - 1 },
            "{grant:?}: must report the first exhausted query in request order"
        );
    }
}
