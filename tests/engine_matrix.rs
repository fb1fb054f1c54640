//! The algorithm × workload × sink matrix test.
//!
//! For **every** algorithm in the engine registry and a planted and an
//! Erdős–Rényi workload, this asserts the three-way agreement the streaming
//! contract promises:
//!
//! * [`CountSink`] totals equal [`CollectSink`] set sizes (exactly-once
//!   emission — a duplicate or a dropped clique would break the equality);
//! * both equal the exact sequential enumeration count (completeness);
//! * the collected set is exactly the ground truth (soundness);
//! * the emission order is deterministic across runs ([`FirstK`] prefix).

use distributed_clique_listing::cliquelist::{
    algorithms, verify_cliques, CliqueSink, CollectSink, CountSink, Engine, FirstK, Parallelism,
};
use distributed_clique_listing::graphcore::{cliques, gen, Clique, Graph};

/// The workloads of the matrix: a planted-clique background and denser
/// Erdős–Rényi graphs.
fn workloads(p: usize) -> Vec<(String, Graph)> {
    vec![
        (
            format!("planted(90,{p})"),
            gen::planted_cliques(90, 0.05, 3, p, 7).0,
        ),
        ("er(70,0.3)".to_string(), gen::erdos_renyi(70, 0.3, 11)),
        ("er(50,0.45)".to_string(), gen::erdos_renyi(50, 0.45, 13)),
    ]
}

#[test]
fn count_collect_and_ground_truth_agree_for_every_algorithm() {
    for algorithm in algorithms() {
        let info = algorithm.info();
        for p in [3usize, 4, 5] {
            if !info.supports_p(p) {
                continue;
            }
            let engine = Engine::builder()
                .p(p)
                .algorithm(info.name)
                .seed(5)
                .build()
                .unwrap_or_else(|e| panic!("{} p={p}: {e}", info.name));
            for (label, graph) in workloads(p) {
                let truth = cliques::count_cliques(&graph, p);

                let mut collect = CollectSink::new();
                let collect_report = engine.run(&graph, &mut collect);
                let mut count = CountSink::new();
                let count_report = engine.run(&graph, &mut count);

                assert_eq!(
                    count.count as usize,
                    collect.len(),
                    "{}, p={p}, {label}: CountSink total != CollectSink size",
                    info.name
                );
                assert_eq!(
                    collect.len(),
                    truth,
                    "{}, p={p}, {label}: listed count != exact enumeration",
                    info.name
                );
                assert_eq!(count_report.sink.emitted, count.count);
                assert_eq!(collect_report.sink.emitted as usize, collect.len());
                verify_cliques(&graph, p, &collect.cliques)
                    .unwrap_or_else(|e| panic!("{}, p={p}, {label}: {e}", info.name));
                // The measured cost must not depend on the sink.
                assert_eq!(
                    collect_report.total_rounds(),
                    count_report.total_rounds(),
                    "{}, p={p}, {label}: rounds depend on the sink",
                    info.name
                );
            }
        }
    }
}

/// Records the exact sink-call sequence of a run (never saturates), so two
/// runs can be compared call for call — the strongest form of the
/// "parallelism never changes output" promise.
#[derive(Default)]
struct TraceSink {
    accepts: Vec<Clique>,
}

impl CliqueSink for TraceSink {
    fn accept(&mut self, clique: &[u32]) {
        self.accepts.push(clique.to_vec());
    }
}

/// Acceptance gate of the sharded-parallelism PR: for **every** registered
/// algorithm × workload, every `Parallelism` setting yields byte-identical
/// output — identical sink-call traces (which subsumes the collected set and
/// the count), identical `FirstK` prefixes, and identical `to_json`
/// artifacts. Algorithms without sharded local enumeration must fall back to
/// sequential rather than diverge.
#[test]
fn parallelism_settings_are_byte_identical_for_every_algorithm() {
    let settings = [
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ];
    for algorithm in algorithms() {
        let info = algorithm.info();
        for p in [3usize, 4] {
            if !info.supports_p(p) {
                continue;
            }
            for (label, graph) in workloads(p).into_iter().take(2) {
                let build = |parallelism: Parallelism| {
                    Engine::builder()
                        .p(p)
                        .algorithm(info.name)
                        .seed(5)
                        .parallelism(parallelism)
                        .build()
                        .unwrap_or_else(|e| panic!("{} p={p}: {e}", info.name))
                };

                let reference_engine = build(Parallelism::Off);
                let mut reference = TraceSink::default();
                let reference_report = reference_engine.run(&graph, &mut reference);
                let reference_json = reference_report.to_json();
                let k = 5.min(reference.accepts.len());
                let mut reference_first = FirstK::new(k);
                reference_engine.run(&graph, &mut reference_first);

                for parallelism in settings {
                    let engine = build(parallelism);
                    let mut trace = TraceSink::default();
                    let report = engine.run(&graph, &mut trace);
                    assert_eq!(
                        trace.accepts, reference.accepts,
                        "{}, p={p}, {label}, {parallelism:?}: sink-call trace \
                         diverged from Parallelism::Off",
                        info.name
                    );
                    assert_eq!(
                        report.to_json(),
                        reference_json,
                        "{}, p={p}, {label}, {parallelism:?}: to_json not byte-identical",
                        info.name
                    );
                    let (_, count) = engine.count(&graph);
                    assert_eq!(
                        count as usize,
                        reference.accepts.len(),
                        "{}, p={p}, {label}, {parallelism:?}: count diverged",
                        info.name
                    );
                    let mut first = FirstK::new(k);
                    engine.run(&graph, &mut first);
                    assert_eq!(
                        first.cliques, reference_first.cliques,
                        "{}, p={p}, {label}, {parallelism:?}: FirstK prefix diverged",
                        info.name
                    );
                }
            }
        }
    }
}

/// [`Engine::collect`] promises the canonical sorted order (each clique's
/// vertices ascending, cliques in lexicographic order) for every algorithm —
/// the order the query service and the JSON artifacts rely on.
#[test]
fn collect_returns_canonical_sorted_order_for_every_algorithm() {
    for algorithm in algorithms() {
        let info = algorithm.info();
        for p in [3usize, 4] {
            if !info.supports_p(p) {
                continue;
            }
            let engine = Engine::builder()
                .p(p)
                .algorithm(info.name)
                .seed(5)
                .build()
                .unwrap_or_else(|e| panic!("{} p={p}: {e}", info.name));
            for (label, graph) in workloads(p).into_iter().take(2) {
                let (_, cliques) = engine.collect(&graph);
                assert!(
                    !cliques.is_empty(),
                    "{}, p={p}, {label}: workload lost its cliques",
                    info.name
                );
                let mut sorted = cliques.clone();
                sorted.sort_unstable();
                assert_eq!(
                    cliques, sorted,
                    "{}, p={p}, {label}: collect output is not canonically sorted",
                    info.name
                );
                for clique in &cliques {
                    assert!(
                        clique.windows(2).all(|w| w[0] < w[1]),
                        "{}, p={p}, {label}: clique {clique:?} not ascending",
                        info.name
                    );
                }
            }
        }
    }
}

#[test]
fn first_k_prefixes_are_deterministic_for_every_algorithm() {
    let graph = gen::erdos_renyi(60, 0.4, 3);
    for algorithm in algorithms() {
        let info = algorithm.info();
        if !info.supports_p(4) {
            continue;
        }
        let engine = Engine::builder()
            .p(4)
            .algorithm(info.name)
            .seed(9)
            .build()
            .expect("valid engine");
        let total = engine.count(&graph).1 as usize;
        let k = 5.min(total);
        let mut first = FirstK::new(k);
        let report = engine.run(&graph, &mut first);
        assert_eq!(first.cliques.len(), k, "{}", info.name);
        assert_eq!(report.sink.emitted as usize, k, "{}", info.name);
        if total > k {
            assert!(report.sink.saturated, "{}", info.name);
        }
        let mut again = FirstK::new(k);
        engine.run(&graph, &mut again);
        assert_eq!(
            first.cliques, again.cliques,
            "{}: emission order is not deterministic",
            info.name
        );
    }
}
