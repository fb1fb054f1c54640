//! Shared property-test helpers for the integration batteries.
//!
//! One helper, used by both `properties.rs` (index construction) and
//! `churn_differential.rs` (the indices under derived snapshots): a full
//! structural audit of a [`CliqueIndex`] against the graph it claims to
//! index. Keeping it here means the churn battery asserts the *same*
//! invariants on a derived snapshot's index that the construction tests
//! assert on a fresh build.

use distributed_clique_listing::graphcore::cliques::CliqueIndex;
use distributed_clique_listing::graphcore::Graph;

/// Asserts every structural invariant a [`CliqueIndex`] promises:
///
/// * the degeneracy ordering is a permutation of the vertices and `position`
///   is its exact inverse;
/// * the ordering is a *valid* degeneracy ordering: every vertex has at most
///   `degeneracy` neighbours later in the order (and the degeneracy itself is
///   bounded by the maximum degree);
/// * the oriented DAG agrees with the ordering — `out_neighbors(v)` is
///   exactly the later neighbours of `v` in ascending id order, so every arc
///   strictly increases `position` (acyclicity) and the arcs cover each
///   undirected edge exactly once (`dag.num_edges() == m`);
/// * the adjacency bitsets agree with the CSR rows bit for bit wherever a
///   row exists.
pub fn assert_index_invariants(graph: &Graph, index: &CliqueIndex, context: &str) {
    let n = graph.num_vertices();
    let ordering = index.ordering();
    let dag = index.dag();

    // Ordering: permutation + inverse positions.
    assert_eq!(ordering.order.len(), n, "{context}: order length");
    assert_eq!(ordering.position.len(), n, "{context}: position length");
    let mut seen = vec![false; n];
    for (pos, &v) in ordering.order.iter().enumerate() {
        assert!((v as usize) < n, "{context}: order has out-of-range {v}");
        assert!(!seen[v as usize], "{context}: vertex {v} repeated in order");
        seen[v as usize] = true;
        assert_eq!(
            ordering.position[v as usize], pos,
            "{context}: position is not the inverse of order at {v}"
        );
    }

    // Degeneracy validity: later-neighbour count bounded by the degeneracy.
    let degeneracy = ordering.degeneracy;
    assert!(
        degeneracy <= graph.max_degree(),
        "{context}: degeneracy {degeneracy} exceeds max degree"
    );
    let mut dag_arcs = 0usize;
    for v in 0..n as u32 {
        let later: Vec<u32> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| ordering.position[w as usize] > ordering.position[v as usize])
            .collect();
        assert!(
            later.len() <= degeneracy,
            "{context}: vertex {v} keeps {} later neighbours, degeneracy {degeneracy}",
            later.len()
        );
        // DAG rows: exactly the later neighbours, ascending by id (the CSR
        // row order), so every arc strictly increases position — acyclic.
        assert_eq!(
            dag.out_neighbors(v),
            later.as_slice(),
            "{context}: DAG row of {v} disagrees with the ordering"
        );
        dag_arcs += later.len();
    }
    assert_eq!(
        dag_arcs,
        graph.num_edges(),
        "{context}: DAG arcs must cover each edge exactly once"
    );
    assert_eq!(dag.num_vertices(), n, "{context}: DAG vertex count");
    assert_eq!(
        dag.num_edges(),
        graph.num_edges(),
        "{context}: DAG edge count"
    );

    // Bitsets ↔ CSR agreement, bit for bit.
    for v in 0..n as u32 {
        if let Some(row) = index.bitset_row(v) {
            assert_eq!(row.len(), n.div_ceil(64), "{context}: bitset stride");
            for w in 0..n as u32 {
                let bit = row[w as usize >> 6] >> (w & 63) & 1 == 1;
                assert_eq!(
                    bit,
                    graph.has_edge(v, w),
                    "{context}: bitset row of {v} disagrees with CSR at {w}"
                );
            }
        }
    }
}
