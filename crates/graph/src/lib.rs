//! Graph substrate for the distributed clique-listing reproduction.
//!
//! This crate is self-contained (no external graph library) and provides
//! everything the CONGEST algorithms need from the "sequential world":
//!
//! * [`Graph`]: compact undirected graphs in CSR form (flat offset + neighbour
//!   arrays, rows sorted by id) with linear-time edge-subgraph operations and
//!   merge-based neighbourhood intersections;
//! * [`gen`]: synthetic workload generators (Erdős–Rényi, planted cliques,
//!   random regular, Barabási–Albert, RMAT/Kronecker, classic families);
//! * [`churn`]: validated, canonicalised edge insert/delete batches and their
//!   incremental application — touched CSR rows are merged in place, untouched
//!   rows copied, and the result is guaranteed equal to a from-scratch build
//!   of the mutated edge list;
//! * [`orientation`]: degeneracy orderings, bounded out-degree orientations
//!   and arboricity bounds — the paper's algorithms are parameterised by an
//!   orientation with bounded out-degree;
//! * [`cliques`]: exact `K_p` enumeration — the sequential ground truth used
//!   to verify the distributed algorithms, plus the shard plans and
//!   per-shard enumerator whose ordered merge is byte-identical to the
//!   sequential order at any thread count;
//! * [`ordered_merge`]: the generic work-item orchestrator behind every
//!   deterministic parallel fan-out (root shards, cluster tasks, query
//!   batches, changed edges): balanced contiguous planning, the host-capped
//!   fan-out rule, claim-window backpressure and ascending-index replay;
//! * [`spectral`]: conductance and lazy-random-walk mixing-time estimates used
//!   to validate the clusters produced by the expander decomposition;
//! * [`partition`]: random vertex partitions and the edge-count bound of
//!   Lemma 2.7.
//!
//! # Example
//!
//! ```
//! use graphcore::{gen, cliques};
//!
//! let graph = gen::erdos_renyi(100, 0.2, 42);
//! let triangles = cliques::list_cliques(&graph, 3);
//! assert_eq!(triangles.len(), cliques::count_cliques(&graph, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod cliques;
pub mod edge;
pub mod gen;
pub mod graph;
pub mod ordered_merge;
pub mod orientation;
pub mod partition;
pub mod spectral;
pub mod stats;

pub use churn::{AppliedBatch, BatchError, EdgeBatch};
pub use cliques::KernelChoice;
pub use edge::{Edge, EdgeSet};
pub use graph::{intersect_sorted_into, Graph, GraphError};
pub use orientation::{Orientation, OrientedDag};

/// A clique, stored as a strictly increasing list of vertex identifiers.
///
/// Cliques are produced both by the sequential ground-truth enumerator and by
/// the distributed algorithms; keeping them in canonical (sorted) form makes
/// set comparison between the two trivial.
pub type Clique = Vec<u32>;

/// Canonicalises an arbitrary vertex list into a [`Clique`] (sorted, deduped).
pub fn canonical_clique(vertices: &[u32]) -> Clique {
    let mut c = vertices.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_clique_sorts_and_dedups() {
        assert_eq!(canonical_clique(&[3, 1, 2, 1]), vec![1, 2, 3]);
        assert_eq!(canonical_clique(&[]), Vec::<u32>::new());
    }
}
