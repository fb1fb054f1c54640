//! The kernel differential battery: Trie vs Recursive vs brute force.
//!
//! PR 10 adds a second enumeration kernel (the induced-subgraph trie with
//! prefix reuse and pivoting). Each `CliqueIndex` picks one of the two at
//! build time, and the choice is absolute in one respect: **the kernel never
//! changes a single output byte** — same cliques, same visit order, same
//! early-stop prefixes, same serialised reports — only the wall-clock
//! profile. This battery checks that contract differentially across the
//! full matrix of
//!
//! * clique sizes `p ∈ {3, 4, 5, 6}`,
//! * workload families (Erdős–Rényi sparse and dense, planted cliques,
//!   multipartite, RMAT, and the dense Turán graph `T(n,3)` where the trie
//!   kernel's pivot shortcut dominates),
//! * both kernels, forced through the test hook
//!   (`CliqueIndex::for_each_clique_while_forced`, `count_cliques_forced`,
//!   `ShardedEnumerator::with_kernel`), next to the index's own choice,
//! * thread grants `{Off, 1, 2, 8}`, and
//! * several fixed seeds (failures reproduce exactly).
//!
//! Checked per cell: the visit-call trace against the *retained naive
//! reference* (plain backtracking, structurally independent of both
//! kernels), the count-only counts (`CliqueIndex::count_cliques` and the sum
//! of `ShardedEnumerator::count_in_shard` over a multi-shard plan), `FirstK`
//! early-stop prefixes, and `RunReport::to_json` bytes. The engine cells run
//! one graph on each side of the index's choice, so both kernels stay
//! exercised behind the engine. The brute-force cells keep every candidate
//! set under 64 vertices, so a second set of cells runs graphs whose DAG
//! out-degrees pass 64 and 128 (two- and three-word trie nodes) and checks
//! the same contract against the recursive kernel by trace digest. A final
//! cell pins the choice itself: a pure, replayable function of the graph —
//! never of the host.

use distributed_clique_listing::cliquelist::{algorithms, CliqueSink, Engine, FirstK, Parallelism};
use distributed_clique_listing::graphcore::cliques::{
    self, CliqueIndex, KernelChoice, ShardedEnumerator,
};
use distributed_clique_listing::graphcore::{gen, Clique, Graph};

const KERNELS: [KernelChoice; 2] = [KernelChoice::Recursive, KernelChoice::Trie];

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

/// The visit trace of the `p`-cliques of `graph` on a forced kernel.
fn trace_on(graph: &Graph, p: usize, kernel: KernelChoice) -> Vec<Clique> {
    let mut trace = Vec::new();
    CliqueIndex::build(graph).for_each_clique_while_forced(graph, p, kernel, |c| {
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
                let reference = trace_on(&graph, p, KernelChoice::Recursive);
                let mut sorted = reference.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted, naive,
                    "{label}, p={p}: listing diverged from the naive reference"
                );
                let index = CliqueIndex::build(&graph);
                let want = Some(naive.len() as u64);
                // The index's own choice, through the production entry
                // points.
                let mut own = Vec::new();
                cliques::for_each_clique(&graph, p, |c| own.push(c.to_vec()));
                assert_eq!(own, reference, "{label}, p={p}: own-choice trace diverged");
                assert_eq!(
                    index.count_cliques(&graph, p),
                    want,
                    "{label}, p={p}: own-choice count diverged"
                );
                for kernel in KERNELS {
                    assert_eq!(
                        trace_on(&graph, p, kernel),
                        reference,
                        "{label}, p={p}, {kernel}: visit trace diverged from \
                         the recursive kernel"
                    );
                    // The count-only descents, whole-graph and summed over
                    // a multi-shard plan, count exactly the naive listing.
                    assert_eq!(
                        index.count_cliques_forced(&graph, p, kernel),
                        want,
                        "{label}, p={p}, {kernel}: count-only count diverged"
                    );
                    let sharded =
                        ShardedEnumerator::with_index(&graph, &index, p, 4).with_kernel(kernel);
                    assert!(sharded.num_shards() > 1, "{label}: plan has one shard");
                    let summed = (0..sharded.num_shards())
                        .map(|shard| sharded.count_in_shard(shard))
                        .sum::<Option<u64>>();
                    assert_eq!(
                        summed, want,
                        "{label}, p={p}, {kernel}: shard counts diverged"
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
        let reference = trace_on(&graph, p, KernelChoice::Recursive);
        assert!(reference.len() > 20, "{label}: workload too sparse");
        let index = CliqueIndex::build(&graph);
        for k in [1usize, 7, 20, reference.len() + 1] {
            for kernel in KERNELS {
                let mut prefix = Vec::new();
                let completed = index.for_each_clique_while_forced(&graph, p, kernel, |c| {
                    prefix.push(c.to_vec());
                    prefix.len() < k
                });
                let expected = k.min(reference.len());
                assert_eq!(
                    prefix,
                    reference[..expected],
                    "{label}, {kernel}, k={k}: prefix diverged"
                );
                assert_eq!(
                    completed,
                    reference.len() < k,
                    "{label}, {kernel}, k={k}: completion flag wrong"
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

fn engine(algorithm: &str, parallelism: Parallelism) -> Engine {
    Engine::builder()
        .p(4)
        .algorithm(algorithm)
        .seed(7)
        .experiment_scale()
        .parallelism(parallelism)
        .build()
        .expect("valid engine")
}

/// The engine cells' graphs, one on each side of the index's kernel choice:
/// `er(70,0.3)` has degeneracy 15 and runs the recursive kernel,
/// `er(70,0.6)` has degeneracy 34 and runs the trie. The choice is asserted,
/// so a change of the selection rule cannot quietly leave the engine cells
/// on one kernel.
fn engine_graphs() -> [(&'static str, Graph); 2] {
    let graphs = [
        ("er(70,0.3,13)", gen::erdos_renyi(70, 0.3, 13)),
        ("er(70,0.6,13)", gen::erdos_renyi(70, 0.6, 13)),
    ];
    for ((label, graph), kernel) in graphs.iter().zip(KERNELS) {
        assert_eq!(CliqueIndex::build(graph).kernel(), kernel, "{label}");
    }
    graphs
}

/// Whether an algorithm's emission is the listing of its whole input graph
/// in the sequential order (its local step enumerates the input itself).
fn lists_the_whole_graph(algorithm: &str) -> bool {
    matches!(algorithm, "congested-clique" | "naive-broadcast")
}

#[test]
fn engine_runs_are_byte_identical_across_kernels_and_grants() {
    // The full-pipeline cell: every built-in algorithm, every grant, one
    // graph on each side of the kernel choice — sink-call traces and
    // `to_json` bytes must all equal the `Off` run. The algorithms that
    // list their whole input must replay the forced recursive kernel's
    // trace, the others its set.
    let grants = [
        Parallelism::Off,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ];
    for (label, graph) in engine_graphs() {
        let recursive = trace_on(&graph, 4, KernelChoice::Recursive);
        assert!(
            !recursive.is_empty(),
            "{label}: workload too sparse to exercise the kernels"
        );
        let mut recursive_set = recursive.clone();
        recursive_set.sort_unstable();
        for algorithm in algorithms() {
            let name = algorithm.info().name;
            if !algorithm.info().supports_p(4) {
                continue;
            }
            let mut reference = TraceSink::default();
            let reference_json = engine(name, Parallelism::Off)
                .run(&graph, &mut reference)
                .to_json();
            if lists_the_whole_graph(name) {
                assert_eq!(
                    reference.accepts, recursive,
                    "{label}, {name}: trace diverged from the recursive kernel"
                );
            }
            let mut listed = reference.accepts.clone();
            listed.sort_unstable();
            assert_eq!(listed, recursive_set, "{label}, {name}: listing diverged");
            for grant in grants {
                let engine = engine(name, grant);
                let mut trace = TraceSink::default();
                let report = engine.run(&graph, &mut trace);
                assert_eq!(
                    trace.accepts, reference.accepts,
                    "{label}, {name}, {grant:?}: sink-call trace diverged"
                );
                assert_eq!(
                    report.to_json(),
                    reference_json,
                    "{label}, {name}, {grant:?}: to_json not byte-identical"
                );
            }
        }
    }
}

#[test]
fn engine_first_k_prefixes_are_kernel_independent() {
    for (label, graph) in engine_graphs() {
        let recursive = trace_on(&graph, 4, KernelChoice::Recursive);
        assert!(recursive.len() > 5, "{label}");
        for k in [1usize, 5, recursive.len() + 3] {
            for grant in [Parallelism::Off, Parallelism::Threads(4)] {
                let mut first = FirstK::new(k);
                engine("congested-clique", grant).run(&graph, &mut first);
                assert_eq!(
                    first.cliques,
                    recursive[..k.min(recursive.len())],
                    "{label}, {grant:?}, k={k}: FirstK prefix diverged"
                );
            }
        }
    }
}

/// An order-sensitive digest of a visit trace: the clique count, an
/// FNV-style hash over every id with a separator after each clique, and the
/// first [`PREFIX_KEPT`] cliques verbatim. The multi-word cells visit up to
/// ~10^6 cliques, too many to store.
#[derive(Default, PartialEq, Eq, Debug)]
struct TraceDigest {
    count: u64,
    hash: u64,
    prefix: Vec<Clique>,
}

const PREFIX_KEPT: usize = 50;

impl CliqueSink for TraceDigest {
    fn accept(&mut self, clique: &[u32]) {
        const PRIME: u64 = 0x0100_0000_01b3;
        self.count += 1;
        for &v in clique {
            self.hash = (self.hash ^ u64::from(v)).wrapping_mul(PRIME);
        }
        self.hash = (self.hash ^ u64::from(u32::MAX)).wrapping_mul(PRIME);
        if self.prefix.len() < PREFIX_KEPT {
            self.prefix.push(clique.to_vec());
        }
    }
}

#[test]
fn multi_word_candidate_sets_match_across_kernels_and_grants() {
    // DAG out-degrees past 64 and 128 give the trie two- and three-word
    // nodes, masks and rows; the brute-force cells above stay under 64.
    // None of these graphs is complete, so the masked descent does the work
    // rather than the combination shortcut.
    for (label, graph, words) in [
        ("er(600,0.15)", gen::erdos_renyi(600, 0.15, 1), 2),
        ("er(1100,0.15)", gen::erdos_renyi(1100, 0.15, 1), 3),
        (
            "multipartite(240,3,0.9)",
            gen::multipartite(240, 3, 0.9, 1),
            3,
        ),
    ] {
        let index = CliqueIndex::build(&graph);
        let max_out = (0..graph.num_vertices() as u32)
            .map(|v| index.dag().out_neighbors(v).len())
            .max()
            .unwrap_or(0);
        assert_eq!(max_out.div_ceil(64), words, "{label}: out-degree {max_out}");
        // The index runs the trie here, so the engine cells below run it
        // too; the forced cells check both kernels.
        assert_eq!(index.kernel(), KernelChoice::Trie, "{label}");
        for p in 3usize..=5 {
            let mut reference = TraceDigest::default();
            index.for_each_clique_while_forced(&graph, p, KernelChoice::Recursive, |c| {
                reference.accept(c);
                true
            });
            let want = cliques::count_cliques(&graph, p) as u64;
            assert_eq!(reference.count, want, "{label}, p={p}: visiting count");
            for kernel in KERNELS {
                let cell = format!("{label}, p={p}, {kernel}");
                let mut trace = TraceDigest::default();
                index.for_each_clique_while_forced(&graph, p, kernel, |c| {
                    trace.accept(c);
                    true
                });
                assert_eq!(trace, reference, "{cell}: visit trace diverged");
                assert_eq!(
                    index.count_cliques_forced(&graph, p, kernel),
                    Some(want),
                    "{cell}: count-only count diverged"
                );
                let sharded =
                    ShardedEnumerator::with_index(&graph, &index, p, 4).with_kernel(kernel);
                let summed = (0..sharded.num_shards())
                    .map(|shard| sharded.count_in_shard(shard))
                    .sum::<Option<u64>>();
                assert_eq!(summed, Some(want), "{cell}: shard counts diverged");
            }
            // The sharded trie enumeration behind the engine, replayed in
            // order at both grants.
            for grant in [Parallelism::Off, Parallelism::Threads(2)] {
                let cell = format!("{label}, p={p}, {grant:?}");
                let engine = Engine::builder()
                    .p(p)
                    .algorithm("naive-broadcast")
                    .parallelism(grant)
                    .build()
                    .expect("valid engine");
                let mut run = TraceDigest::default();
                engine.run(&graph, &mut run);
                assert_eq!(run, reference, "{cell}: engine trace diverged");
                for k in [1usize, PREFIX_KEPT] {
                    let mut first = FirstK::new(k);
                    engine.run(&graph, &mut first);
                    assert_eq!(
                        first.cliques,
                        reference.prefix[..k.min(reference.prefix.len())],
                        "{cell}, k={k}: FirstK prefix diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_resolution_is_deterministic_and_pure() {
    // The index picks its kernel from the graph alone: rebuilt indexes of
    // the same graph agree, sparse shapes pin Recursive, dense shapes pin
    // Trie, and the forced hook overrides the choice both ways. Nothing
    // here may depend on the host (thread counts, timing, environment).
    let sparse = gen::erdos_renyi(200, 0.02, 1);
    let dense = gen::multipartite(60, 6, 1.0, 2);
    for (graph, want) in [
        (&sparse, KernelChoice::Recursive),
        (&dense, KernelChoice::Trie),
    ] {
        let index = CliqueIndex::build(graph);
        assert_eq!(index.kernel(), want);
        assert_eq!(
            CliqueIndex::build(graph).kernel(),
            want,
            "rebuilt index chose differently"
        );
        for kernel in KERNELS {
            assert_eq!(
                ShardedEnumerator::with_index(graph, &index, 3, 4)
                    .with_kernel(kernel)
                    .kernel(),
                kernel,
                "the forced {kernel} is honoured whatever the index picks"
            );
        }
    }
}
