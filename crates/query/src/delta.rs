//! Delta listing: exactly the cliques created and destroyed by an edge
//! churn batch, computed from the two snapshots it connects.
//!
//! The semantics rest on one observation: every edge of a clique of the
//! *new* graph is either an edge that survived from the old graph or one the
//! batch inserted. A clique that exists in the new graph but not the old must
//! therefore contain at least one inserted edge — so the created set is the
//! union, over the inserted edges, of the new graph's cliques containing that
//! edge. Symmetrically, the destroyed set is the union over the deleted edges
//! of the *old* graph's cliques containing them. Both unions are tiny
//! compared to the full listings: the work scales with the churn, not with
//! the graph.
//!
//! [`delta_cliques`] diffs the two snapshots' sorted edge streams directly
//! (it never trusts a caller-supplied batch), fans the per-edge enumerations
//! out through `graphcore::ordered_merge` under a thread grant, and
//! canonicalises the result — sorted, duplicate-free, exactly-once — so the
//! delta is byte-identical at any thread grant. The churn differential
//! battery (`tests/churn_differential.rs`) pins `delta == set difference of
//! the full listings` across workloads, clique sizes and thread grants.

use crate::snapshot::GraphSnapshot;
use cliquelist::Parallelism;
use graphcore::Clique;
use std::fmt;

/// Why [`delta_cliques`] refused to diff two snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The snapshots have different vertex counts: they cannot be two states
    /// of one churned graph (edge batches never change the vertex set), so a
    /// per-edge delta is not defined between them.
    VertexCountMismatch {
        /// Vertex count of the `old` snapshot.
        old_n: usize,
        /// Vertex count of the `new` snapshot.
        new_n: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::VertexCountMismatch { old_n, new_n } => write!(
                f,
                "snapshots disagree on the vertex set ({old_n} vs {new_n} vertices)"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The exact clique-level effect of an edge churn batch: every `p`-clique
/// that exists after but not before (`created`) and before but not after
/// (`destroyed`). Both lists are canonical — each clique sorted internally,
/// the lists sorted lexicographically, no duplicates — and the two sets are
/// provably disjoint (a created clique contains an edge the old graph did
/// not have).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliqueDelta {
    /// The clique size the delta was computed for.
    pub p: usize,
    /// Cliques of the new snapshot absent from the old one.
    pub created: Vec<Clique>,
    /// Cliques of the old snapshot absent from the new one.
    pub destroyed: Vec<Clique>,
}

impl CliqueDelta {
    /// Whether the batch changed no `p`-clique at all.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.destroyed.is_empty()
    }

    /// Total number of affected cliques.
    pub fn len(&self) -> usize {
        self.created.len() + self.destroyed.len()
    }
}

/// A sorted list of canonical (`u < v`) edges.
type EdgeList = Vec<(u32, u32)>;

/// Diffs the sorted edge streams of two graphs: returns
/// `(in new only, in old only)`, both sorted with `u < v`.
fn edge_diff(old: &graphcore::Graph, new: &graphcore::Graph) -> (EdgeList, EdgeList) {
    let mut inserted = Vec::new();
    let mut deleted = Vec::new();
    let mut old_edges = old.edges().peekable();
    let mut new_edges = new.edges().peekable();
    loop {
        match (old_edges.peek(), new_edges.peek()) {
            (Some(&a), Some(&b)) => match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    deleted.push(a);
                    old_edges.next();
                }
                std::cmp::Ordering::Greater => {
                    inserted.push(b);
                    new_edges.next();
                }
                std::cmp::Ordering::Equal => {
                    old_edges.next();
                    new_edges.next();
                }
            },
            (Some(&a), None) => {
                deleted.push(a);
                old_edges.next();
            }
            (None, Some(&b)) => {
                inserted.push(b);
                new_edges.next();
            }
            (None, None) => break,
        }
    }
    (inserted, deleted)
}

/// All `p`-cliques of `snapshot` containing the edge `{u, v}`, in the
/// enumerator's deterministic order.
fn cliques_on_edge(snapshot: &GraphSnapshot, p: usize, (u, v): (u32, u32)) -> Vec<Clique> {
    let mut out = Vec::new();
    snapshot
        .index()
        .for_each_containing_edge_while(snapshot.graph(), p, u, v, |c| {
            out.push(c.to_vec());
            true
        });
    out
}

/// Computes the [`CliqueDelta`] between two snapshots of one churned graph.
///
/// The edge difference is taken from the snapshots themselves (a linear merge
/// of their sorted edge streams), so the result is correct even when the
/// caller's batch contained ineffective changes — and `delta_cliques(s, s, p,
/// ..)` is always empty. Work is proportional to the churn: one per-edge
/// containment enumeration per changed edge, fanned out through
/// `graphcore::ordered_merge` under a thread grant (inline when the fan-out
/// rule gives one thread). The output is canonical and identical at every
/// thread grant (`&self`-concurrent: both snapshots are only read).
///
/// `p < 2` deltas are empty by definition (vertices never churn); `p == 2`
/// deltas are the edge difference itself.
///
/// # Errors
///
/// [`DeltaError::VertexCountMismatch`] when the snapshots' vertex counts
/// differ.
pub fn delta_cliques(
    old: &GraphSnapshot,
    new: &GraphSnapshot,
    p: usize,
    parallelism: Parallelism,
) -> Result<CliqueDelta, DeltaError> {
    let (old_n, new_n) = (old.graph().num_vertices(), new.graph().num_vertices());
    if old_n != new_n {
        return Err(DeltaError::VertexCountMismatch { old_n, new_n });
    }
    if p < 2 {
        return Ok(CliqueDelta {
            p,
            ..CliqueDelta::default()
        });
    }
    let (inserted, deleted) = edge_diff(old.graph(), new.graph());
    if p == 2 {
        return Ok(CliqueDelta {
            p,
            created: inserted.iter().map(|&(u, v)| vec![u, v]).collect(),
            destroyed: deleted.iter().map(|&(u, v)| vec![u, v]).collect(),
        });
    }
    let mut created: Vec<Clique> = Vec::new();
    let mut destroyed: Vec<Clique> = Vec::new();
    let mut consumed = 0usize;
    // Item i enumerates against the snapshot that owns the edge: inserted
    // edges exist only in `new`, deleted ones only in `old`.
    graphcore::ordered_merge::ordered_merge(
        inserted.len() + deleted.len(),
        parallelism.threads().max(1),
        |i| {
            if i < inserted.len() {
                cliques_on_edge(new, p, inserted[i])
            } else {
                cliques_on_edge(old, p, deleted[i - inserted.len()])
            }
        },
        |cliques| {
            let bucket = if consumed < inserted.len() {
                &mut created
            } else {
                &mut destroyed
            };
            bucket.extend(cliques);
            consumed += 1;
            true
        },
    );
    // A clique containing several changed edges was enumerated once per
    // edge: canonicalise to exactly-once. The per-edge streams are already
    // internally sorted, but the concatenation across edges is not.
    created.sort_unstable();
    created.dedup();
    destroyed.sort_unstable();
    destroyed.dedup();
    Ok(CliqueDelta {
        p,
        created,
        destroyed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{cliques, gen, EdgeBatch, Graph};

    /// Reference implementation: the set difference of the full listings.
    fn reference_delta(old: &Graph, new: &Graph, p: usize) -> (Vec<Clique>, Vec<Clique>) {
        let before = cliques::list_cliques(old, p);
        let after = cliques::list_cliques(new, p);
        let created = after
            .iter()
            .filter(|c| !before.contains(c))
            .cloned()
            .collect();
        let destroyed = before
            .iter()
            .filter(|c| !after.contains(c))
            .cloned()
            .collect();
        (created, destroyed)
    }

    #[test]
    fn delta_matches_full_listing_set_difference() {
        for seed in 0..3u64 {
            let g = gen::erdos_renyi(45, 0.25, seed);
            let old = GraphSnapshot::build(g.clone());
            let deletes: Vec<(u32, u32)> = g.edges().step_by(11).take(5).collect();
            let inserts: Vec<(u32, u32)> = gen::erdos_renyi(45, 0.05, seed + 7)
                .edges()
                .filter(|&(u, v)| !g.has_edge(u, v))
                .take(5)
                .collect();
            let batch = EdgeBatch::new(&inserts, &deletes).unwrap();
            let (new, _) = old.apply_batch(&batch).unwrap();
            for p in [3, 4] {
                let delta = delta_cliques(&old, &new, p, Parallelism::Off).unwrap();
                let (created, destroyed) = reference_delta(old.graph(), new.graph(), p);
                assert_eq!(delta.created, created, "seed {seed} p {p}");
                assert_eq!(delta.destroyed, destroyed, "seed {seed} p {p}");
                assert_eq!(delta.len(), created.len() + destroyed.len());
            }
        }
    }

    #[test]
    fn small_p_and_identity_edge_cases() {
        let g = gen::erdos_renyi(20, 0.3, 1);
        let old = GraphSnapshot::build(g.clone());
        // Identical snapshots: empty delta at any p.
        for p in [0, 1, 2, 3] {
            let delta = delta_cliques(&old, &old, p, Parallelism::Off).unwrap();
            assert!(delta.is_empty(), "p {p}");
            assert_eq!(delta.p, p);
        }
        // p == 2: the delta is the edge diff itself.
        let batch = EdgeBatch::new(&[], &[g.edges().next().unwrap()]).unwrap();
        let (new, _) = old.apply_batch(&batch).unwrap();
        let delta = delta_cliques(&old, &new, 2, Parallelism::Off).unwrap();
        let (u, v) = g.edges().next().unwrap();
        assert!(delta.created.is_empty());
        assert_eq!(delta.destroyed, vec![vec![u, v]]);
    }

    #[test]
    fn vertex_count_mismatch_is_rejected() {
        let a = GraphSnapshot::build(gen::path_graph(4));
        let b = GraphSnapshot::build(gen::path_graph(5));
        let err = delta_cliques(&a, &b, 3, Parallelism::Off).unwrap_err();
        assert_eq!(err, DeltaError::VertexCountMismatch { old_n: 4, new_n: 5 });
        assert!(format!("{err}").contains("vertex set"));
    }

    #[test]
    fn delta_is_identical_at_any_thread_grant() {
        let g = gen::erdos_renyi(50, 0.25, 9);
        let old = GraphSnapshot::build(g.clone());
        let deletes: Vec<(u32, u32)> = g.edges().step_by(5).take(12).collect();
        let inserts: Vec<(u32, u32)> = gen::erdos_renyi(50, 0.08, 21)
            .edges()
            .filter(|&(u, v)| !g.has_edge(u, v))
            .take(12)
            .collect();
        let (new, _) = old
            .apply_batch(&EdgeBatch::new(&inserts, &deletes).unwrap())
            .unwrap();
        let baseline = delta_cliques(&old, &new, 4, Parallelism::Off).unwrap();
        for threads in [1, 2, 8] {
            let delta = delta_cliques(&old, &new, 4, Parallelism::Threads(threads)).unwrap();
            assert_eq!(delta, baseline, "threads {threads}");
        }
    }
}
