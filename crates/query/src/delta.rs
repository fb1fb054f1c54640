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
//! [`delta_cliques`] diffs the two snapshots' CSR rows directly (it never
//! trusts a caller-supplied batch; rows equal as slices are skipped), fans
//! the per-edge enumerations out through `graphcore::ordered_merge` under a
//! thread grant, each returning its cliques as flat rows of width `p`, and
//! canonicalises the result with one sort of the rows that drops adjacent
//! repeats — sorted, duplicate-free, exactly-once — so the delta is
//! byte-identical at any thread grant. Only then is each row turned into a
//! public [`Clique`]. A clique holding several changed edges is enumerated
//! once per such edge; the sort puts the copies side by side, so dropping
//! them costs nothing, and no ownership rule decides which edge lists it
//! (`DESIGN.md` §13). The churn differential battery
//! (`tests/churn_differential.rs`) pins `delta == set difference of the full
//! listings` across workloads, clique sizes and thread grants.

use crate::snapshot::GraphSnapshot;
use cliquelist::Parallelism;
use graphcore::{Clique, Graph};
use std::cmp::Ordering;
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

/// Diffs two graphs on one vertex set row by row: returns
/// `(in new only, in old only)`, both sorted with `u < v`. Rows equal as
/// slices are skipped; a changed row merges the two rows' upper halves
/// (`v > u`), so each edge is seen from its smaller endpoint only.
fn edge_diff(old: &Graph, new: &Graph) -> (EdgeList, EdgeList) {
    let mut inserted = Vec::new();
    let mut deleted = Vec::new();
    for u in 0..old.num_vertices() as u32 {
        let (a, b) = (old.neighbors(u), new.neighbors(u));
        if a == b {
            continue;
        }
        let a = &a[a.partition_point(|&v| v < u)..];
        let b = &b[b.partition_point(|&v| v < u)..];
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    deleted.push((u, a[i]));
                    i += 1;
                }
                Ordering::Greater => {
                    inserted.push((u, b[j]));
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        deleted.extend(a[i..].iter().map(|&v| (u, v)));
        inserted.extend(b[j..].iter().map(|&v| (u, v)));
    }
    (inserted, deleted)
}

/// All `p`-cliques of `snapshot` containing the edge `{u, v}`, as flat rows
/// of width `p` in the enumerator's deterministic order.
fn cliques_on_edge(snapshot: &GraphSnapshot, p: usize, (u, v): (u32, u32)) -> Vec<u32> {
    let mut rows = Vec::new();
    snapshot
        .index()
        .for_each_containing_edge_while(snapshot.graph(), p, u, v, |c| {
            rows.extend_from_slice(c);
            true
        });
    rows
}

/// The canonical clique list of flat rows of width `p`: the rows sorted
/// lexicographically, adjacent repeats dropped, each row its own [`Clique`].
/// A row sorts by its first four vertices packed into one `u128` (the whole
/// row at `p ≤ 4`); only rows equal there compare the rest.
fn canonical_cliques(rows: &[u32], p: usize) -> Vec<Clique> {
    let mut sorted: Vec<(u128, &[u32])> = rows
        .chunks_exact(p)
        .map(|row| {
            let key = row[..p.min(4)]
                .iter()
                .fold(0, |key, &v| key << 32 | u128::from(v));
            (key, row)
        })
        .collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.into_iter().map(|(_, row)| row.to_vec()).collect()
}

/// Computes the [`CliqueDelta`] between two snapshots of one churned graph.
///
/// The edge difference is taken from the snapshots themselves (a row-by-row
/// merge of their CSR rows that skips equal rows), so the result is correct
/// even when the caller's batch contained ineffective changes — and
/// `delta_cliques(s, s, p, ..)` is always empty. Work is proportional to the
/// churn: one per-edge containment enumeration per changed edge, fanned out
/// through `graphcore::ordered_merge` under a thread grant (inline when the
/// fan-out rule gives one thread), each returning flat rows of width `p`.
/// One sort per side puts the rows in canonical order and drops the repeats
/// of cliques that hold several changed edges; the public lists are built
/// from the sorted rows at the end. The output is canonical and identical at
/// every thread grant (`&self`-concurrent: both snapshots are only read).
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
    let mut created = Vec::new();
    let mut destroyed = Vec::new();
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
        |rows| {
            let bucket = if consumed < inserted.len() {
                &mut created
            } else {
                &mut destroyed
            };
            bucket.extend_from_slice(&rows);
            consumed += 1;
            true
        },
    );
    // A clique holding several changed edges was enumerated once per edge;
    // sorting the rows puts its copies next to each other.
    Ok(CliqueDelta {
        p,
        created: canonical_cliques(&created, p),
        destroyed: canonical_cliques(&destroyed, p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{cliques, gen, EdgeBatch};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn canonical_cliques_sort_and_drop_repeats() {
        let n = 12u32;
        let mut rng = SmallRng::seed_from_u64(5);
        for p in [3usize, 4, 5] {
            let mut rows: Vec<u32> = Vec::new();
            for i in 0..300 {
                if i % 4 == 3 {
                    // A repeat of an earlier row.
                    let k = rng.gen_range(0..rows.len() / p);
                    rows.extend_from_within(k * p..(k + 1) * p);
                    continue;
                }
                let mut row: Vec<u32> = Vec::with_capacity(p);
                if i % 5 == 0 {
                    row.push(n - 1);
                }
                while row.len() < p {
                    let v = rng.gen_range(0..n);
                    if !row.contains(&v) {
                        row.push(v);
                    }
                }
                row.sort_unstable();
                rows.extend(row);
            }
            let mut want: Vec<Clique> = rows.chunks(p).map(<[u32]>::to_vec).collect();
            want.sort_unstable();
            want.dedup();
            let canonical = canonical_cliques(&rows, p);
            assert!(canonical.len() < rows.len() / p, "p {p}: repeats present");
            assert!(canonical.iter().any(|c| c.contains(&(n - 1))), "p {p}");
            assert_eq!(canonical, want, "p {p}");
        }
    }
}
