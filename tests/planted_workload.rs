//! Workspace-level integration test: the full `K_p` listing pipeline on small
//! planted workloads, driven through the `Engine` API and cross-checked
//! against `graphcore::cliques` exact enumeration.

use distributed_clique_listing::cliquelist::baselines::simulate_naive_broadcast;
use distributed_clique_listing::cliquelist::Engine;
use distributed_clique_listing::graphcore::{canonical_clique, cliques, gen};
use std::collections::HashSet;

/// Lists `K_p` with the general algorithm on a planted workload and compares
/// the output set against the exact sequential enumeration.
fn check_planted(n: usize, p: usize, num_planted: usize, seed: u64) {
    let (graph, planted) = gen::planted_cliques(n, 0.04, num_planted, p, seed);
    let engine = Engine::builder()
        .p(p)
        .algorithm("general")
        .seed(seed)
        .build()
        .expect("valid engine");
    let (report, listed) = engine.collect(&graph);

    let mut exact: Vec<Vec<u32>> = cliques::list_cliques(&graph, p);
    exact.sort_unstable();
    assert_eq!(
        listed, exact,
        "n={n} p={p} seed={seed}: distributed listing != exact enumeration"
    );
    for c in &planted {
        assert!(
            listed.contains(&canonical_clique(&c.vertices)),
            "n={n} p={p} seed={seed}: planted clique {:?} missing",
            c.vertices
        );
    }
    assert_eq!(report.sink.emitted as usize, exact.len());
}

#[test]
fn planted_k4_workloads_match_exact_enumeration() {
    for seed in [5u64, 23] {
        check_planted(110, 4, 4, seed);
    }
}

#[test]
fn planted_k5_workloads_match_exact_enumeration() {
    for seed in [7u64, 31] {
        check_planted(110, 5, 3, seed);
    }
}

#[test]
fn fast_k4_matches_exact_enumeration_on_planted_workload() {
    let (graph, _) = gen::planted_cliques(100, 0.05, 4, 4, 13);
    let engine = Engine::builder()
        .p(4)
        .algorithm("fast-k4")
        .build()
        .expect("valid engine");
    let (_, listed) = engine.collect(&graph);
    let mut exact: Vec<Vec<u32>> = cliques::list_cliques(&graph, 4);
    exact.sort_unstable();
    assert_eq!(listed, exact);
}

/// The message-level simulation path (stepped by the parallel round
/// executor) must agree with the exact enumeration too.
#[test]
fn simulated_broadcast_matches_exact_enumeration() {
    let (graph, _) = gen::planted_cliques(60, 0.05, 3, 4, 41);
    let (report, result) = simulate_naive_broadcast(&graph, 4, 100_000);
    assert!(report.terminated);
    let listed: HashSet<Vec<u32>> = result.cliques.iter().cloned().collect();
    let exact: HashSet<Vec<u32>> = cliques::list_cliques(&graph, 4).into_iter().collect();
    assert_eq!(listed, exact);
}
