//! The parallel-vs-sequential differential battery.
//!
//! The sharded paths promise output **byte-identical** to
//! `Parallelism::Off` at every thread count — same cliques, same emission
//! order, same early-stop prefixes. The first half of this file checks that
//! promise for the sharded dense enumeration, driven through `Engine`
//! `naive-broadcast` (whose only listing step is the engine's shared local
//! enumeration: `ShardedEnumerator` shards replayed through `ordered_merge`),
//! differentially across the full matrix of
//!
//! * clique sizes `p ∈ {3, 4, 5, 6}`,
//! * workload families (Erdős–Rényi, planted cliques, multipartite/Turán,
//!   RMAT, random regular),
//! * thread counts `{1, 2, 3, 8}` (including oversubscription of this
//!   machine), and
//! * seeds drawn from the deterministic in-tree property harness (no
//!   proptest in the build environment; failures reproduce exactly).
//!
//! Checked per cell: the sink-call trace, the `CountSink` count and
//! `FirstK` early-stop prefixes. Shard-plan structure is covered separately.
//!
//! The second half of the file is the **cluster-parallel battery** (PR 5):
//! the CONGEST pipelines (`general`, `fast-k4`, `eden-k4`) fan their
//! per-cluster work out over the shared ordered-merge orchestrator, and
//! every algorithm × workload × thread-count × seed cell must reproduce the
//! `Parallelism::Off` run exactly — sink-call traces, counts, `FirstK`
//! prefixes, per-phase round breakdowns and `to_json` bytes.

use distributed_clique_listing::cliquelist::{CliqueSink, CountSink, Engine, FirstK, Parallelism};
use distributed_clique_listing::graphcore::cliques::{ShardPlan, ShardedEnumerator};
use distributed_clique_listing::graphcore::orientation::{degeneracy_ordering, OrientedDag};
use distributed_clique_listing::graphcore::{gen, Clique, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Thread counts exercised for every workload (1 must hit the sequential
/// delegation path; 8 oversubscribes small shard plans).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The workload families of the matrix, sized so the whole battery stays
/// fast while every generator family contributes dense and sparse shapes.
fn workloads(seed: u64) -> Vec<(String, Graph)> {
    vec![
        (
            format!("er(70,0.25,{seed})"),
            gen::erdos_renyi(70, 0.25, seed),
        ),
        (
            format!("planted(80,p6,{seed})"),
            gen::planted_cliques(80, 0.04, 3, 6, seed).0,
        ),
        (
            format!("multipartite(75,3,0.5,{seed})"),
            gen::multipartite(75, 3, 0.5, seed),
        ),
        (
            format!("rmat(6,10,{seed})"),
            gen::rmat(6, 10, (0.57, 0.19, 0.19, 0.05), seed),
        ),
        (
            format!("regular(70,12,{seed})"),
            gen::random_regular(70, 12, seed),
        ),
    ]
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

fn naive_engine(p: usize, parallelism: Parallelism) -> Engine {
    Engine::builder()
        .p(p)
        .algorithm("naive-broadcast")
        .parallelism(parallelism)
        .build()
        .expect("valid engine")
}

/// The `Parallelism::Off` sink-call trace: the reference for every
/// comparison.
fn sequential_trace(graph: &Graph, p: usize) -> Vec<Clique> {
    let mut trace = TraceSink::default();
    naive_engine(p, Parallelism::Off).run(graph, &mut trace);
    trace.accepts
}

#[test]
fn parallel_trace_and_count_match_sequential_across_the_matrix() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0001);
    for round in 0..2u64 {
        let seed = rng.gen_range(0u64..1_000);
        for (label, graph) in workloads(seed) {
            for p in 3usize..=6 {
                let reference = sequential_trace(&graph, p);
                for threads in THREADS {
                    let engine = naive_engine(p, Parallelism::Threads(threads));
                    let mut trace = TraceSink::default();
                    engine.run(&graph, &mut trace);
                    assert_eq!(
                        trace.accepts, reference,
                        "round {round}, {label}, p={p}, threads={threads}: \
                         sink-call trace diverged from Parallelism::Off"
                    );
                    let mut count = CountSink::new();
                    engine.run(&graph, &mut count);
                    assert_eq!(
                        count.count as usize,
                        reference.len(),
                        "round {round}, {label}, p={p}, threads={threads}: count diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn early_stop_prefixes_match_sequential_first_k() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0002);
    for _ in 0..6 {
        let seed = rng.gen_range(0u64..1_000);
        let graph = gen::erdos_renyi(60, 0.35, seed);
        let p = rng.gen_range(3usize..6);
        let reference = sequential_trace(&graph, p);
        if reference.is_empty() {
            continue;
        }
        for threads in THREADS {
            let engine = naive_engine(p, Parallelism::Threads(threads));
            for k in [1usize, 3, 17, reference.len() + 1] {
                let mut first = FirstK::new(k);
                let report = engine.run(&graph, &mut first);
                let expected = k.min(reference.len());
                assert_eq!(
                    first.cliques,
                    reference[..expected],
                    "p={p} threads={threads} k={k}"
                );
                // The sink saturates exactly when at least k cliques exist.
                assert_eq!(
                    report.sink.saturated,
                    reference.len() >= k,
                    "p={p} threads={threads} k={k}: saturation flag wrong"
                );
            }
        }
    }
}

#[test]
fn shard_plans_partition_the_ordering_with_balanced_work() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0003);
    for case in 0..12 {
        let n = rng.gen_range(4usize..90);
        let prob = f64::from(rng.gen_range(5u32..50)) / 100.0;
        let graph = gen::erdos_renyi(n, prob, rng.gen_range(0u64..1_000));
        let ordering = degeneracy_ordering(&graph);
        let dag = OrientedDag::from_ordering(&graph, &ordering);
        for target in [1usize, 2, 4, 16, 64] {
            let plan = ShardPlan::balanced(&dag, &ordering, 4, target);
            assert!(plan.num_shards() >= 1, "case {case}");
            assert!(plan.num_shards() <= target.min(n), "case {case}");
            let mut covered = 0usize;
            for range in plan.ranges() {
                assert_eq!(range.start, covered, "case {case}: gap or overlap");
                assert!(!range.is_empty(), "case {case}: empty shard");
                covered = range.end;
            }
            assert_eq!(covered, n, "case {case}: plan must cover every root");
        }
    }
}

// --------------------------------------------------------------------------
// Cluster-parallel battery: the CONGEST pipelines under the Parallelism knob.
// --------------------------------------------------------------------------

/// The three cluster-pipeline algorithms made `Sharded` by PR 5.
const CONGEST_ALGORITHMS: [&str; 3] = ["general", "fast-k4", "eden-k4"];

/// Workloads where the cluster pipeline genuinely activates (dense enough to
/// produce clusters) plus a sparse shape exercising the no-cluster path.
fn congest_workloads(seed: u64) -> Vec<(String, Graph)> {
    vec![
        (
            format!("er(80,0.3,{seed})"),
            gen::erdos_renyi(80, 0.3, seed),
        ),
        (
            format!("planted(90,p4,{seed})"),
            gen::planted_cliques(90, 0.05, 3, 4, seed).0,
        ),
        (
            format!("er-sparse(90,0.08,{seed})"),
            gen::erdos_renyi(90, 0.08, seed),
        ),
    ]
}

fn congest_engine(algorithm: &str, seed: u64, parallelism: Parallelism) -> Engine {
    Engine::builder()
        .p(4)
        .algorithm(algorithm)
        .seed(seed)
        // Simulation-scale tuning keeps the cluster pipeline active at these
        // sizes instead of skipping straight to the final broadcast.
        .experiment_scale()
        .parallelism(parallelism)
        .build()
        .expect("valid engine")
}

#[test]
fn cluster_parallel_runs_are_byte_identical_across_threads_and_seeds() {
    let mut rng = SmallRng::seed_from_u64(0xC105_0001);
    for _ in 0..2 {
        let seed = rng.gen_range(0u64..1_000);
        for algorithm in CONGEST_ALGORITHMS {
            for (label, graph) in congest_workloads(seed) {
                let reference_engine = congest_engine(algorithm, seed, Parallelism::Off);
                let mut reference = TraceSink::default();
                let reference_report = reference_engine.run(&graph, &mut reference);
                let reference_json = reference_report.to_json();

                for threads in THREADS {
                    let engine = congest_engine(algorithm, seed, Parallelism::Threads(threads));
                    let mut trace = TraceSink::default();
                    let report = engine.run(&graph, &mut trace);
                    assert_eq!(
                        trace.accepts, reference.accepts,
                        "{algorithm}, {label}, threads={threads}: sink-call trace \
                         diverged from Parallelism::Off"
                    );
                    // Phase-by-phase round breakdown, not just the total: a
                    // cluster dropped or double-counted by the fan-out would
                    // show up here first.
                    assert_eq!(
                        report.rounds, reference_report.rounds,
                        "{algorithm}, {label}, threads={threads}: phase rounds diverged"
                    );
                    assert_eq!(
                        report.diagnostics, reference_report.diagnostics,
                        "{algorithm}, {label}, threads={threads}: diagnostics diverged"
                    );
                    assert_eq!(
                        report.to_json(),
                        reference_json,
                        "{algorithm}, {label}, threads={threads}: to_json not byte-identical"
                    );
                    let mut count = CountSink::new();
                    engine.run(&graph, &mut count);
                    assert_eq!(
                        count.count as usize,
                        reference.accepts.len(),
                        "{algorithm}, {label}, threads={threads}: count diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn cluster_parallel_first_k_prefixes_match_sequential() {
    let mut rng = SmallRng::seed_from_u64(0xC105_0002);
    for _ in 0..2 {
        let seed = rng.gen_range(0u64..1_000);
        let graph = gen::erdos_renyi(80, 0.3, seed);
        for algorithm in CONGEST_ALGORITHMS {
            let reference_engine = congest_engine(algorithm, seed, Parallelism::Off);
            let mut full = TraceSink::default();
            reference_engine.run(&graph, &mut full);
            if full.accepts.is_empty() {
                continue;
            }
            for k in [1usize, 5, full.accepts.len() + 7] {
                let mut reference_first = FirstK::new(k);
                let reference_report = reference_engine.run(&graph, &mut reference_first);
                for threads in THREADS {
                    let engine = congest_engine(algorithm, seed, Parallelism::Threads(threads));
                    let mut first = FirstK::new(k);
                    let report = engine.run(&graph, &mut first);
                    assert_eq!(
                        first.cliques, reference_first.cliques,
                        "{algorithm}, threads={threads}, k={k}: FirstK prefix diverged"
                    );
                    // Saturation skips replay but never communication: the
                    // round breakdown and emission accounting stay identical.
                    assert_eq!(
                        report.rounds, reference_report.rounds,
                        "{algorithm}, threads={threads}, k={k}: rounds diverged under saturation"
                    );
                    assert_eq!(
                        report.sink, reference_report.sink,
                        "{algorithm}, threads={threads}, k={k}: sink summary diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn cluster_parallel_auto_matches_explicit_threads() {
    // Parallelism::Auto resolves from the environment; whatever it resolves
    // to, the output must equal the Off reference (the CI matrix pins
    // CLIQUELIST_THREADS to sweep this).
    let graph = gen::erdos_renyi(70, 0.3, 11);
    for algorithm in CONGEST_ALGORITHMS {
        let mut reference = TraceSink::default();
        let reference_report =
            congest_engine(algorithm, 11, Parallelism::Off).run(&graph, &mut reference);
        let mut auto = TraceSink::default();
        let auto_report = congest_engine(algorithm, 11, Parallelism::Auto).run(&graph, &mut auto);
        assert_eq!(
            auto.accepts, reference.accepts,
            "{algorithm}: Auto diverged"
        );
        assert_eq!(
            auto_report.to_json(),
            reference_report.to_json(),
            "{algorithm}: Auto to_json diverged"
        );
    }
}

#[test]
fn shard_enumeration_concatenates_to_the_sequential_trace() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0004);
    for _ in 0..4 {
        let graph = gen::erdos_renyi(50, 0.35, rng.gen_range(0u64..1_000));
        let p = rng.gen_range(3usize..6);
        let reference = sequential_trace(&graph, p);
        for target in [1usize, 3, 9] {
            let enumerator = ShardedEnumerator::new(&graph, p, target);
            let mut merged = Vec::new();
            for shard in 0..enumerator.num_shards() {
                enumerator.for_each_in_shard(shard, |c| merged.push(c.to_vec()));
            }
            assert_eq!(merged, reference, "p={p} target={target}");
        }
    }
}
