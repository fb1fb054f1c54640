//! Dynamic snapshots under edge churn: apply batches, watch which ones keep
//! the content identity, and list exactly the cliques each batch created and
//! destroyed.
//!
//! A stream of edge updates against a monitored graph rarely wants a full
//! re-listing per tick — it wants the *delta*. This example builds a
//! [`GraphSnapshot`], applies three batches (a light one, an ineffective one
//! that is a structural no-op, and a heavy one that deletes a third of the
//! edges), prints each batch's effective changes and whether the derived
//! snapshot kept the old identity, and diffs consecutive snapshots with
//! [`delta_cliques`] — verifying the delta against the full listings as it
//! goes.
//!
//! ```text
//! cargo run --release --example churn
//! ```
//!
//! The per-edge delta enumeration fans out over up to the granted threads,
//! capped at the host's cores; a sequential run (`Parallelism::Off`) yields
//! an identical delta — determinism is the whole point.

use distributed_clique_listing::cliquelist::Parallelism;
use distributed_clique_listing::graphcore::{cliques, gen, AppliedBatch, EdgeBatch};
use distributed_clique_listing::query::{
    delta_cliques, GraphSnapshot, QueryBuilder, QueryOutcome, QueryService,
};

/// Prints one batch's effective changes and whether the derived snapshot
/// kept the old content identity.
fn describe(label: &str, applied: &AppliedBatch, old: &GraphSnapshot, new: &GraphSnapshot) {
    println!(
        "{label} batch: {} effective changes ({} inserted, {} deleted), identity kept = {}",
        applied.len(),
        applied.inserted.len(),
        applied.deleted.len(),
        new.id() == old.id()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = gen::erdos_renyi(260, 0.12, 5);
    println!(
        "base graph: n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    );
    let old = GraphSnapshot::build(graph);
    println!("snapshot {:016x}\n", old.id());

    // 1. Light churn: a handful of changes derives a new snapshot with a
    //    new identity.
    let deletes: Vec<(u32, u32)> = old.graph().edges().step_by(97).take(8).collect();
    let inserts: Vec<(u32, u32)> = gen::erdos_renyi(260, 0.01, 77)
        .edges()
        .filter(|&(u, v)| !old.graph().has_edge(u, v))
        .take(8)
        .collect();
    let light = EdgeBatch::new(&inserts, &deletes)?;
    let (mid, applied) = old.apply_batch(&light)?;
    describe("light", &applied, &old, &mid);
    println!("  {:016x} -> {:016x}\n", old.id(), mid.id());

    // The delta: exactly the triangles the batch created and destroyed,
    // verified against the full listings.
    let delta = delta_cliques(&old, &mid, 3, Parallelism::Auto)?;
    let before = cliques::count_cliques(old.graph(), 3) as i64;
    let after = cliques::count_cliques(mid.graph(), 3) as i64;
    println!(
        "triangle delta: +{} created, -{} destroyed (census {before} -> {after})",
        delta.created.len(),
        delta.destroyed.len()
    );
    assert_eq!(
        after - before,
        delta.created.len() as i64 - delta.destroyed.len() as i64,
        "delta must account for the census change exactly"
    );

    // 2. Ineffective churn: inserts that already exist and deletes that
    //    miss resolve to a no-op — the identity (and every cached query
    //    result) survives.
    let existing: Vec<(u32, u32)> = mid.graph().edges().take(3).collect();
    let noop = EdgeBatch::new(&existing, &[])?;
    let service = QueryService::new(mid.clone().into_shared());
    let census = QueryBuilder::new().p(3).count().build(&mid)?;
    service.execute(&census)?; // warm the cache against mid's identity
    let (same, applied) = mid.apply_batch(&noop)?;
    println!();
    describe("no-op", &applied, &mid, &same);
    let requery = QueryBuilder::new().p(3).count().build(&same)?;
    let replay = service.execute(&requery)?;
    println!(
        "  census replay served from cache: {}",
        replay.report.cache_hit
    );
    assert!(
        replay.report.cache_hit,
        "no-op churn must not evict the cache"
    );

    // 3. Heavy churn: deleting a third of the edges. Every effective batch,
    //    light or heavy, derives its snapshot the same way: one cold build of
    //    the mutated graph.
    let purge: Vec<(u32, u32)> = mid.graph().edges().step_by(3).collect();
    let (new, applied) = mid.apply_batch(&EdgeBatch::new(&[], &purge)?)?;
    println!();
    describe("heavy", &applied, &mid, &new);
    let delta = delta_cliques(&mid, &new, 4, Parallelism::Auto)?;
    println!(
        "K_4 delta: +{} created, -{} destroyed",
        delta.created.len(),
        delta.destroyed.len()
    );

    // The derived snapshot is a first-class snapshot: query it.
    let new = new.into_shared();
    let service = QueryService::new(new.clone());
    let survivors = service.execute(&QueryBuilder::new().p(3).count().build(&new)?)?;
    if let QueryOutcome::Count(count) = survivors.outcome {
        println!("triangles surviving the purge: {count}");
    }
    Ok(())
}
