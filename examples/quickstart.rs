//! Quickstart: list the `K_5` instances of a random graph with the paper's
//! CONGEST algorithm (Theorem 1.1) through the streaming `Engine` API and
//! check the output against the exact sequential enumeration.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use distributed_clique_listing::cliquelist::{
    verify_cliques, CollectSink, CountSink, Engine, Parallelism,
};
use distributed_clique_listing::graphcore::gen;

fn main() {
    // A sparse Erdős–Rényi background with three planted K_5 instances.
    let (graph, planted) = gen::planted_cliques(300, 0.03, 3, 5, 2024);
    println!(
        "input graph: n = {}, m = {}, planted K5s = {}",
        graph.num_vertices(),
        graph.num_edges(),
        planted.len()
    );

    // Build a validated engine for the general K_p algorithm with p = 5 and
    // stream the listing into a collecting sink.
    let engine = Engine::builder()
        .p(5)
        .algorithm("general")
        .build()
        .expect("p = 5 is a valid configuration");
    let mut sink = CollectSink::new();
    let report = engine.run(&graph, &mut sink);

    println!(
        "listed {} distinct K5 instances ({} emitted to the sink)",
        sink.len(),
        report.sink.emitted
    );
    println!("round breakdown ({} total):", report.total_rounds());
    for (phase, rounds) in report.rounds.iter() {
        println!("  {phase:<22} {rounds}");
    }
    println!(
        "diagnostics: {} LIST iterations, {} decompositions, {} clusters, bad-edge fraction {:.4}",
        report.diagnostics.list_iterations,
        report.diagnostics.decompositions,
        report.diagnostics.clusters,
        report.diagnostics.bad_edge_fraction()
    );

    // The union of node outputs must be the complete list.
    verify_cliques(&graph, 5, &sink.cliques).expect("listing is exact");
    for clique in &planted {
        assert!(
            sink.cliques.contains(&clique.vertices),
            "planted clique {:?} missing",
            clique.vertices
        );
    }
    println!("verification against the sequential ground truth: OK");

    // Same graph through the CONGESTED CLIQUE algorithm with Parallelism::Auto:
    // its local enumeration shards across worker threads, and the output is
    // byte-identical to a sequential run — the knob only ever changes
    // wall-clock time. CONGEST-simulated
    // algorithms ignore it and record why in the report.
    let parallel_engine = Engine::builder()
        .p(5)
        .algorithm("congested-clique")
        .parallelism(Parallelism::Auto)
        .build()
        .expect("Auto parallelism is a valid configuration");
    let mut count = CountSink::new();
    let parallel_report = parallel_engine.run(&graph, &mut count);
    assert_eq!(count.count as usize, sink.len(), "listings must agree");
    match parallel_report.parallelism.sequential_reason {
        None => println!(
            "congested-clique recount, granted {} worker thread(s): {} cliques",
            parallel_report.parallelism.threads_granted, count.count
        ),
        Some(reason) => println!(
            "congested-clique recount ran sequentially ({reason}): {} cliques",
            count.count
        ),
    }
}
