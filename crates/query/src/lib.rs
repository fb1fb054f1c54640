//! Concurrent clique queries over immutable graph snapshots.
//!
//! The engine in `cliquelist` owns a graph end to end for one run; this crate
//! serves the opposite regime — **many independent queries against one
//! graph** — by splitting the work the way the DIST line of work does:
//!
//! 1. [`GraphSnapshot`]: build every enumeration artifact (CSR graph,
//!    degeneracy ordering, oriented DAG, adjacency bitsets, per-`p` shard
//!    plans) exactly once, then share the immutable result behind an `Arc`.
//! 2. [`Query`] / [`QueryBuilder`]: a typed request model — counts, bounded
//!    prefixes, per-vertex and per-edge listings, existence — validated up
//!    front with typed [`QueryError`]s instead of panics.
//! 3. [`QueryService`]: executes single queries and deterministic batches
//!    (cache hits answered on the calling thread, misses fanned out through
//!    `graphcore::ordered_merge`, responses in request order) with an
//!    in-memory result cache keyed by the [`Query`] value, whose fields are
//!    its canonical `(snapshot id, query)` identity.
//! 4. [`GraphSnapshot::apply_batch`] / [`delta_cliques`]: dynamic snapshots.
//!    An `EdgeBatch` derives a *new* content-addressed snapshot, built cold
//!    from the mutated graph (a batch that changes nothing keeps the old
//!    identity), and the delta API lists exactly the cliques the batch
//!    created and destroyed, byte-identical at any thread grant (see
//!    `DESIGN.md` §13).
//!
//! Determinism contract: a response's payload ([`QueryResponse::to_json`])
//! depends only on the snapshot contents and the query — never on thread
//! counts or cache state, which live in the separate [`QueryReport`]. See
//! `DESIGN.md` §11 for the architecture and the cache identity scheme.
//!
//! # Quickstart
//!
//! ```
//! use graphcore::gen;
//! use query::{GraphSnapshot, QueryBuilder, QueryOutcome, QueryService};
//!
//! // Build once: graph + ordering + DAG + bitsets + shard plans.
//! let graph = gen::erdos_renyi(150, 0.15, 42);
//! let snapshot = GraphSnapshot::builder(graph)
//!     .prepare_p(3)
//!     .prepare_p(4)
//!     .build()?
//!     .into_shared();
//!
//! // Query many: a mixed batch answered in request order.
//! let service = QueryService::new(snapshot.clone());
//! let batch = vec![
//!     QueryBuilder::new().p(3).count().build(&snapshot)?,
//!     QueryBuilder::new().p(4).first(5).build(&snapshot)?,
//!     QueryBuilder::new().p(3).containing_vertex(7).build(&snapshot)?,
//! ];
//! let responses = service.execute_batch(&batch)?;
//! if let QueryOutcome::Count(triangles) = responses[0].outcome {
//!     println!("{triangles} triangles");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod delta;
pub mod model;
pub mod service;
pub mod snapshot;

pub use cache::CacheStats;
pub use delta::{delta_cliques, CliqueDelta, DeltaError};
pub use model::{Query, QueryBuilder, QueryError, QueryKind};
pub use service::{QueryOutcome, QueryReport, QueryResponse, QueryService};
pub use snapshot::{
    GraphSnapshot, SnapshotBuilder, SnapshotError, DEFAULT_PREPARED_PS, DEFAULT_TARGET_SHARDS,
};
