//! Build-once, query-many: the snapshot/query subsystem end to end.
//!
//! A monitoring dashboard, a notebook session or an API server rarely wants
//! one full listing pass — it wants many small questions about one fixed
//! graph: how many triangles? which `K_4`s does this hub belong to? does a
//! `K_5` exist at all? This example builds a [`GraphSnapshot`] once (CSR
//! graph + degeneracy ordering + oriented DAG + adjacency bitsets + shard
//! plans), shares it behind an `Arc`, and answers a mixed batch of typed
//! queries through a [`QueryService`] — then replays the batch to show the
//! content-addressed cache short-circuiting every enumeration.
//!
//! ```text
//! cargo run --release --example query_service
//! ```
//!
//! The batch's cache misses fan out over up to the granted threads, capped
//! at the host's cores; its hits are answered on the calling thread. A
//! sequential service (`Parallelism::Off`) returns identical payloads —
//! determinism is the whole point.

use distributed_clique_listing::graphcore::gen;
use distributed_clique_listing::query::{GraphSnapshot, QueryBuilder, QueryOutcome, QueryService};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build once. The snapshot owns the graph and every enumeration
    // artifact; nothing below mutates it.
    let graph = gen::barabasi_albert(400, 8, 21);
    println!(
        "snapshot source: n = {}, m = {}, max degree = {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );
    let snapshot = GraphSnapshot::builder(graph)
        .prepare_p(3)
        .prepare_p(4)
        .prepare_p(5)
        .build()?
        .into_shared();
    println!(
        "snapshot {:016x}: prepared clique sizes {:?}",
        snapshot.id(),
        snapshot.prepared_ps()
    );

    // Query many. A mixed batch: census counts, a bounded sample, per-vertex
    // and per-edge membership, existence.
    let hub = 0u32; // Barabási–Albert attaches everyone near vertex 0.
    let (a, b) = snapshot.graph().edges().next().expect("graph has edges");
    let batch = vec![
        QueryBuilder::new().p(3).count().build(&snapshot)?,
        QueryBuilder::new().p(4).count().build(&snapshot)?,
        QueryBuilder::new().p(4).first(3).build(&snapshot)?,
        QueryBuilder::new()
            .p(4)
            .containing_vertex(hub)
            .build(&snapshot)?,
        QueryBuilder::new()
            .p(3)
            .containing_edge(a, b)
            .build(&snapshot)?,
        QueryBuilder::new().p(5).exists().build(&snapshot)?,
    ];

    let service = QueryService::new(snapshot.clone());
    println!(
        "service: a grant of {} thread(s), cold cache\n",
        service.threads()
    );

    let responses = service.execute_batch(&batch)?;
    for response in &responses {
        let execution = if response.report.cache_hit {
            "cache".to_string()
        } else {
            format!("{} shard(s)", response.report.shards)
        };
        let answer = match &response.outcome {
            QueryOutcome::Count(count) => format!("{count}"),
            QueryOutcome::Exists(exists) => format!("{exists}"),
            QueryOutcome::Cliques(cliques) if cliques.len() <= 3 => format!("{cliques:?}"),
            QueryOutcome::Cliques(cliques) => format!("{} cliques", cliques.len()),
        };
        println!(
            "  {:<60} -> {answer} [{execution}]",
            response.query.canonical_identity()
        );
    }

    // Replay the identical batch: every enumeration is short-circuited by
    // the content-addressed cache, and every payload is byte-identical.
    let replay = service.execute_batch(&batch)?;
    let all_hits = replay.iter().all(|r| r.report.cache_hit);
    let identical = responses
        .iter()
        .zip(&replay)
        .all(|(cold, warm)| cold.to_json() == warm.to_json());
    let stats = service.cache_stats();
    println!("\nreplay: all from cache = {all_hits}, payloads byte-identical = {identical}");
    println!(
        "cache: {} hit(s), {} miss(es), {} entrie(s)",
        stats.hits, stats.misses, stats.entries
    );
    assert!(all_hits && identical, "cache must short-circuit the replay");

    // A second service over the *same* snapshot answers independently —
    // snapshots are immutable, so sharing them is free.
    let audit = QueryService::new(snapshot.clone());
    let triangles = audit.execute(&batch[0])?;
    if let QueryOutcome::Count(count) = triangles.outcome {
        println!("independent audit service agrees: {count} triangles");
    }
    Ok(())
}
