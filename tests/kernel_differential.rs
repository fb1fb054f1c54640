//! The kernel differential battery: Trie vs Recursive vs brute force.
//!
//! PR 10 adds a second enumeration kernel (the induced-subgraph trie with
//! prefix reuse and pivoting) behind the `KernelStrategy` knob. The knob's
//! contract is absolute: **the kernel never changes a single output byte** —
//! same cliques, same visit order, same early-stop prefixes, same serialised
//! reports — only the wall-clock profile. This battery checks that contract
//! differentially across the full matrix of
//!
//! * clique sizes `p ∈ {3, 4, 5, 6}`,
//! * workload families (Erdős–Rényi sparse and dense, planted cliques,
//!   multipartite, RMAT, and the dense Turán graph `T(n,3)` where the trie
//!   kernel's pivot shortcut dominates),
//! * kernel strategies `{Recursive, Trie, Auto}`,
//! * thread grants `{Off, 1, 2, 8}`, and
//! * several fixed seeds (failures reproduce exactly).
//!
//! Checked per cell: the visit-call trace against the *retained naive
//! reference* (plain backtracking, structurally independent of both
//! kernels), the count-only counts (`CliqueIndex::count_cliques` and the sum
//! of `ShardedEnumerator::count_in_shard` over a multi-shard plan), `FirstK`
//! early-stop prefixes, and `RunReport::to_json` bytes. A final cell pins the `Auto` resolution itself: a pure, replayable
//! function of (strategy, degeneracy) — never of the host.

use distributed_clique_listing::cliquelist::{algorithms, CliqueSink, Engine, FirstK, Parallelism};
use distributed_clique_listing::graphcore::cliques::{
    for_each_clique_while_with, CliqueIndex, KernelChoice, KernelStrategy, ShardedEnumerator,
};
use distributed_clique_listing::graphcore::{gen, Clique, Graph};

const STRATEGIES: [KernelStrategy; 3] = [
    KernelStrategy::Recursive,
    KernelStrategy::Trie,
    KernelStrategy::Auto,
];

/// The naive reference: enumerate increasing vertex tuples, extending only
/// by vertices adjacent to every chosen one. Independent of the degeneracy
/// machinery, the oriented DAG, the bitsets and both kernels.
fn brute_force_cliques(graph: &Graph, p: usize) -> Vec<Clique> {
    fn extend(graph: &Graph, p: usize, start: u32, current: &mut Vec<u32>, out: &mut Vec<Clique>) {
        if current.len() == p {
            out.push(current.clone());
            return;
        }
        for v in start..graph.num_vertices() as u32 {
            if current.iter().all(|&u| graph.has_edge(u, v)) {
                current.push(v);
                extend(graph, p, v + 1, current, out);
                current.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(graph, p, 0, &mut Vec::with_capacity(p), &mut out);
    out
}

/// Workloads sized for the brute-force cross-check (the naive reference is
/// exponential-ish): every family the fast paths specialise for, including
/// the dense Turán shape that drives the trie kernel's pivot shortcut.
fn workloads(p: usize, seed: u64) -> Vec<(String, Graph)> {
    vec![
        (
            format!("er(26,0.35,{seed})"),
            gen::erdos_renyi(26, 0.35, seed),
        ),
        (
            format!("er(20,0.6,{seed})"),
            gen::erdos_renyi(20, 0.6, seed),
        ),
        (
            format!("planted(26,p={p},{seed})"),
            gen::planted_cliques(26, 0.1, 2, p, seed).0,
        ),
        (
            format!("multipartite(24,3,0.7,{seed})"),
            gen::multipartite(24, 3, 0.7, seed),
        ),
        (
            // The complete 3-partite Turán graph: every candidate set is
            // complete or near-complete, so this cell lives almost entirely
            // in the trie kernel's combination-emission shortcut.
            format!("turan(18,3,{seed})"),
            gen::multipartite(18, 3, 1.0, seed),
        ),
        (
            format!("rmat(5,6,{seed})"),
            gen::rmat(5, 6, (0.57, 0.19, 0.19, 0.05), seed),
        ),
    ]
}

fn trace_with(graph: &Graph, p: usize, strategy: KernelStrategy) -> Vec<Clique> {
    let mut trace = Vec::new();
    for_each_clique_while_with(graph, p, strategy, |c| {
        trace.push(c.to_vec());
        true
    });
    trace
}

#[test]
fn every_kernel_matches_brute_force_across_the_matrix() {
    for seed in [1u64, 2] {
        for p in 3usize..=6 {
            for (label, graph) in workloads(p, seed) {
                let naive = brute_force_cliques(&graph, p);
                // The recursive kernel is the order reference (degeneracy-root
                // visit order); brute force checks the *set* plus count.
                let reference = trace_with(&graph, p, KernelStrategy::Recursive);
                let mut sorted = reference.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted, naive,
                    "{label}, p={p}: listing diverged from the naive reference"
                );
                let index = CliqueIndex::build(&graph);
                let want = Some(naive.len() as u64);
                for strategy in STRATEGIES {
                    assert_eq!(
                        trace_with(&graph, p, strategy),
                        reference,
                        "{label}, p={p}, {strategy}: visit trace diverged from \
                         the recursive kernel"
                    );
                    // The count-only descents, whole-graph and summed over
                    // a multi-shard plan, count exactly the naive listing.
                    assert_eq!(
                        index.count_cliques(&graph, p, strategy),
                        want,
                        "{label}, p={p}, {strategy}: count-only count diverged"
                    );
                    let sharded =
                        ShardedEnumerator::with_index(&graph, &index, p, 4).with_kernel(strategy);
                    assert!(sharded.num_shards() > 1, "{label}: plan has one shard");
                    let summed = (0..sharded.num_shards())
                        .map(|shard| sharded.count_in_shard(shard))
                        .sum::<Option<u64>>();
                    assert_eq!(
                        summed, want,
                        "{label}, p={p}, {strategy}: shard counts diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn early_stop_prefixes_are_kernel_independent() {
    // A visitor that declines mid-run must see the same prefix from both
    // kernels — including mid-combination-block aborts inside the trie
    // kernel's pivot shortcut (the Turán workload guarantees such blocks).
    for (label, graph, p) in [
        // K4-free, so every triangle comes out of a complete candidate set:
        // the abort lands inside a combination block.
        ("turan(21,3)", gen::multipartite(21, 3, 1.0, 5), 3usize),
        ("er(40,0.4)", gen::erdos_renyi(40, 0.4, 5), 4usize),
    ] {
        let reference = trace_with(&graph, p, KernelStrategy::Recursive);
        assert!(reference.len() > 20, "{label}: workload too sparse");
        for k in [1usize, 7, 20, reference.len() + 1] {
            for strategy in STRATEGIES {
                let mut prefix = Vec::new();
                let completed = for_each_clique_while_with(&graph, p, strategy, |c| {
                    prefix.push(c.to_vec());
                    prefix.len() < k
                });
                let expected = k.min(reference.len());
                assert_eq!(
                    prefix,
                    reference[..expected],
                    "{label}, {strategy}, k={k}: prefix diverged"
                );
                assert_eq!(
                    completed,
                    reference.len() < k,
                    "{label}, {strategy}, k={k}: completion flag wrong"
                );
            }
        }
    }
}

/// Records the exact sink-call sequence of a run (never saturates).
#[derive(Default)]
struct TraceSink {
    accepts: Vec<Clique>,
}

impl CliqueSink for TraceSink {
    fn accept(&mut self, clique: &[u32]) {
        self.accepts.push(clique.to_vec());
    }
}

fn engine(algorithm: &str, kernel: KernelStrategy, parallelism: Parallelism) -> Engine {
    Engine::builder()
        .p(4)
        .algorithm(algorithm)
        .seed(7)
        .experiment_scale()
        .kernel(kernel)
        .parallelism(parallelism)
        .build()
        .expect("valid engine")
}

#[test]
fn engine_runs_are_byte_identical_across_kernels_and_grants() {
    // The full-pipeline cell: every built-in algorithm, every kernel, every
    // grant, one dense-enough workload — sink-call traces and `to_json`
    // bytes must all equal the (Recursive, Off) reference. This is the
    // battery's teeth for the `RunReport` exclusion contract: the kernel
    // summary lives on the report but never in its serialised bytes.
    let graph = gen::erdos_renyi(70, 0.3, 13);
    let grants = [
        Parallelism::Off,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ];
    for algorithm in algorithms() {
        let name = algorithm.info().name;
        if !algorithm.info().supports_p(4) {
            continue;
        }
        let mut reference = TraceSink::default();
        let reference_report =
            engine(name, KernelStrategy::Recursive, Parallelism::Off).run(&graph, &mut reference);
        let reference_json = reference_report.to_json();
        assert!(
            !reference.accepts.is_empty(),
            "{name}: workload too sparse to exercise the kernels"
        );
        for kernel in STRATEGIES {
            for grant in grants {
                let engine = engine(name, kernel, grant);
                let mut trace = TraceSink::default();
                let report = engine.run(&graph, &mut trace);
                assert_eq!(
                    trace.accepts, reference.accepts,
                    "{name}, {kernel}, {grant:?}: sink-call trace diverged"
                );
                assert_eq!(
                    report.to_json(),
                    reference_json,
                    "{name}, {kernel}, {grant:?}: to_json not byte-identical"
                );
                assert_eq!(report.kernel.requested, kernel, "{name}: summary echo");
            }
        }
    }
}

#[test]
fn engine_first_k_prefixes_are_kernel_independent() {
    let graph = gen::erdos_renyi(70, 0.3, 13);
    let mut full = TraceSink::default();
    engine(
        "congested-clique",
        KernelStrategy::Recursive,
        Parallelism::Off,
    )
    .run(&graph, &mut full);
    assert!(full.accepts.len() > 5);
    for k in [1usize, 5, full.accepts.len() + 3] {
        let mut reference = FirstK::new(k);
        engine(
            "congested-clique",
            KernelStrategy::Recursive,
            Parallelism::Off,
        )
        .run(&graph, &mut reference);
        for kernel in STRATEGIES {
            for grant in [Parallelism::Off, Parallelism::Threads(4)] {
                let mut first = FirstK::new(k);
                engine("congested-clique", kernel, grant).run(&graph, &mut first);
                assert_eq!(
                    first.cliques, reference.cliques,
                    "{kernel}, {grant:?}, k={k}: FirstK prefix diverged"
                );
            }
        }
    }
}

#[test]
fn auto_resolution_is_deterministic_and_pure() {
    // `Auto` resolves from the graph's degeneracy alone: rebuilt indexes of
    // the same graph agree, sparse shapes pin Recursive, dense shapes pin
    // Trie, and explicit strategies are always honoured. Nothing here may
    // depend on the host (thread counts, timing, environment).
    let sparse = gen::erdos_renyi(200, 0.02, 1);
    let dense = gen::multipartite(60, 6, 1.0, 2);
    for graph in [&sparse, &dense] {
        let a = CliqueIndex::build(graph);
        let b = CliqueIndex::build(graph);
        for strategy in STRATEGIES {
            assert_eq!(
                a.resolve_kernel(strategy),
                b.resolve_kernel(strategy),
                "rebuilt index resolved differently"
            );
        }
    }
    let sparse_index = CliqueIndex::build(&sparse);
    let dense_index = CliqueIndex::build(&dense);
    assert_eq!(
        sparse_index.resolve_kernel(KernelStrategy::Auto),
        KernelChoice::Recursive
    );
    assert_eq!(
        dense_index.resolve_kernel(KernelStrategy::Auto),
        KernelChoice::Trie
    );
    assert_eq!(
        sparse_index.resolve_kernel(KernelStrategy::Trie),
        KernelChoice::Trie,
        "explicit Trie is honoured even where Auto declines"
    );
    assert_eq!(
        dense_index.resolve_kernel(KernelStrategy::Recursive),
        KernelChoice::Recursive
    );
}
