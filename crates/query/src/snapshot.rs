//! Immutable, shareable graph snapshots: the build-once half of the
//! build-once/query-many split.
//!
//! A [`GraphSnapshot`] owns the graph (CSR form) together with every artifact
//! the ordered clique search needs — the degeneracy ordering, the oriented
//! DAG, the adjacency bitsets and the enumeration kernel picked for the
//! graph, bundled as a [`CliqueIndex`] — plus one balanced
//! [`ShardPlan`] per prepared clique size. Everything is built exactly once
//! by [`SnapshotBuilder::build`] and never mutated afterwards, so a snapshot
//! behind an [`Arc`] serves any number of concurrent queries through `&self`.
//!
//! Snapshots are content-addressed: [`GraphSnapshot::id`] is a word-at-a-time
//! hash of the graph's vertex count, edge count and sorted edge list (one
//! multiply and one rotate per edge), so two snapshots of identical graphs
//! share cached results and any structural change produces a fresh identity
//! (see `DESIGN.md` §11).

use graphcore::cliques::{CliqueIndex, ShardPlan};
use graphcore::{AppliedBatch, BatchError, EdgeBatch, Graph};
use std::fmt;
use std::sync::Arc;

/// Clique sizes a snapshot prepares shard plans for when the builder names
/// none explicitly.
pub const DEFAULT_PREPARED_PS: &[usize] = &[3, 4, 5];

/// Default number of shards planned per prepared clique size. A fixed target
/// (rather than one derived from the thread count) keeps the plans — and
/// everything downstream of them — independent of the host's parallelism.
pub const DEFAULT_TARGET_SHARDS: usize = 64;

/// Why a [`SnapshotBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A prepared clique size was below 3; the `p ≤ 2` queries are trivial
    /// scans that need no shard plan, so preparing them is a misuse.
    CliqueSizeTooSmall {
        /// The offending clique size.
        p: usize,
    },
    /// The shard target was zero.
    ZeroShards,
    /// An [`EdgeBatch`] could not be applied to the snapshot's graph (an
    /// endpoint out of range — the batch-construction errors are caught
    /// earlier, by [`EdgeBatch::new`] itself).
    Batch(BatchError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::CliqueSizeTooSmall { p } => {
                write!(f, "prepared clique size must be at least 3, got {p}")
            }
            SnapshotError::ZeroShards => write!(f, "shard target must be at least 1"),
            SnapshotError::Batch(err) => write!(f, "edge batch rejected: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BatchError> for SnapshotError {
    fn from(err: BatchError) -> SnapshotError {
        SnapshotError::Batch(err)
    }
}

/// Validating builder for [`GraphSnapshot`] — misconfiguration surfaces as a
/// typed [`SnapshotError`] before any index work happens.
#[derive(Debug)]
pub struct SnapshotBuilder {
    graph: Graph,
    ps: Vec<usize>,
    target_shards: usize,
}

impl SnapshotBuilder {
    /// Declares a clique size the snapshot will serve. Repeated declarations
    /// are deduplicated; when none are made, [`DEFAULT_PREPARED_PS`] applies.
    #[must_use]
    pub fn prepare_p(mut self, p: usize) -> Self {
        self.ps.push(p);
        self
    }

    /// Overrides the per-`p` shard target (default
    /// [`DEFAULT_TARGET_SHARDS`]).
    #[must_use]
    pub fn target_shards(mut self, target_shards: usize) -> Self {
        self.target_shards = target_shards;
        self
    }

    /// Builds the snapshot: validates the configuration, then constructs the
    /// clique index and one shard plan per prepared size.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when a prepared size is below 3 or the
    /// shard target is zero.
    pub fn build(self) -> Result<GraphSnapshot, SnapshotError> {
        if self.target_shards == 0 {
            return Err(SnapshotError::ZeroShards);
        }
        let mut ps = self.ps;
        if let Some(&p) = ps.iter().find(|&&p| p < 3) {
            return Err(SnapshotError::CliqueSizeTooSmall { p });
        }
        if ps.is_empty() {
            ps.extend_from_slice(DEFAULT_PREPARED_PS);
        }
        ps.sort_unstable();
        ps.dedup();
        Ok(GraphSnapshot::assemble(self.graph, ps, self.target_shards))
    }
}

/// An immutable graph plus every build-once artifact of the ordered clique
/// search, shareable across threads behind an [`Arc`].
///
/// All state is read-only after [`SnapshotBuilder::build`]; queries against
/// the snapshot (see [`QueryService`](crate::QueryService)) allocate their
/// own scratch per call, so `&self` access is safely concurrent. Mutation is
/// modelled as derivation: [`GraphSnapshot::apply_batch`] leaves `self`
/// untouched and returns a *new* snapshot with a new content identity.
///
/// `PartialEq` compares the full built state — graph bytes, index, plans,
/// identity, shard target — so the churn battery's `derived == reference`
/// assertions mean structural byte-identity, not just equal ids.
#[derive(Clone, PartialEq, Eq)]
pub struct GraphSnapshot {
    graph: Graph,
    index: CliqueIndex,
    /// `(p, plan)` pairs, ascending in `p`.
    plans: Vec<(usize, ShardPlan)>,
    id: u64,
    /// Remembered so derived snapshots ([`GraphSnapshot::apply_batch`]) plan
    /// their shards with the same target as the original build.
    target_shards: usize,
}

impl GraphSnapshot {
    /// Starts a validating builder over `graph` (consumed: the snapshot owns
    /// its graph so the pair can live behind one `Arc`).
    ///
    /// # Duplicate edges: the dedup contract
    ///
    /// The builder consumes a [`Graph`], and `Graph::from_edges` already
    /// canonicalises its input — duplicate edges (in either orientation) are
    /// merged during CSR construction, so a duplicate can never reach the
    /// builder, there is no `SnapshotError::DuplicateEdge`, and two edge
    /// lists describing the same simple graph always produce the **same
    /// content identity**. This is deliberate: the snapshot id must be a
    /// function of the graph, not of how its edge list was spelled. (The
    /// churn layer makes the same choice: `EdgeBatch` dedups at
    /// construction.) Pinned by `duplicate_edges_collapse_to_one_identity`.
    pub fn builder(graph: Graph) -> SnapshotBuilder {
        SnapshotBuilder {
            graph,
            ps: Vec::new(),
            target_shards: DEFAULT_TARGET_SHARDS,
        }
    }

    /// Builds a snapshot with the default configuration
    /// ([`DEFAULT_PREPARED_PS`], [`DEFAULT_TARGET_SHARDS`]), which cannot
    /// fail validation.
    pub fn build(graph: Graph) -> GraphSnapshot {
        GraphSnapshot::builder(graph)
            .build()
            .expect("default snapshot configuration is valid")
    }

    /// Builds every artifact of `graph`: the content identity, the clique
    /// index and one shard plan per size in `ps` (sorted, deduplicated). The
    /// one constructor behind [`SnapshotBuilder::build`] and
    /// [`GraphSnapshot::apply_batch`].
    fn assemble(graph: Graph, ps: Vec<usize>, target_shards: usize) -> GraphSnapshot {
        let id = content_id(&graph);
        let index = CliqueIndex::build(&graph);
        let plans = ps
            .into_iter()
            .map(|p| {
                (
                    p,
                    ShardPlan::balanced(index.dag(), index.ordering(), p, target_shards),
                )
            })
            .collect();
        GraphSnapshot {
            graph,
            index,
            plans,
            id,
            target_shards,
        }
    }

    /// Wraps the snapshot for sharing across threads and services.
    pub fn into_shared(self) -> Arc<GraphSnapshot> {
        Arc::new(self)
    }

    /// The content identity: a word-at-a-time hash of the vertex count, the
    /// edge count and the sorted edge list, each edge one `u64` word. Equal
    /// for structurally identical graphs, different after any edge/vertex
    /// change — the first half of every cache key.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshotted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared clique index (ordering + DAG + bitsets + the kernel every
    /// query against the snapshot runs, [`CliqueIndex::kernel`]).
    pub fn index(&self) -> &CliqueIndex {
        &self.index
    }

    /// The clique sizes this snapshot prepared shard plans for, ascending.
    pub fn prepared_ps(&self) -> Vec<usize> {
        self.plans.iter().map(|&(p, _)| p).collect()
    }

    /// Whether queries for clique size `p` can be built against this
    /// snapshot.
    pub fn is_prepared(&self, p: usize) -> bool {
        self.plan_for(p).is_some()
    }

    /// The prebuilt shard plan for `p`, if prepared.
    pub(crate) fn plan_for(&self, p: usize) -> Option<&ShardPlan> {
        self.plans
            .iter()
            .find(|&&(prepared, _)| prepared == p)
            .map(|(_, plan)| plan)
    }

    /// Applies an edge churn batch, deriving a **new** snapshot (same
    /// prepared sizes and shard target) together with the batch's
    /// effective changes. `self` is untouched — existing queries and caches
    /// against it remain valid.
    ///
    /// A batch that changes nothing returns a clone with the *same* content
    /// identity, so every cached result stays valid. Any other batch builds
    /// the new snapshot cold from the mutated graph, exactly as
    /// [`SnapshotBuilder::build`] would: the index under a snapshot is an
    /// `O(n + m)` build, and the per-update work that matters is
    /// [`delta_cliques`](crate::delta_cliques).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Batch`] when a batch endpoint is out of range for the
    /// snapshot's vertex set.
    pub fn apply_batch(
        &self,
        batch: &EdgeBatch,
    ) -> Result<(GraphSnapshot, AppliedBatch), SnapshotError> {
        let (graph, applied) = self.graph.apply_edge_batch(batch)?;
        if applied.is_noop() {
            return Ok((self.clone(), applied));
        }
        let snapshot = GraphSnapshot::assemble(graph, self.prepared_ps(), self.target_shards);
        Ok((snapshot, applied))
    }
}

impl fmt::Debug for GraphSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphSnapshot")
            .field("id", &format_args!("{:016x}", self.id))
            .field("num_vertices", &self.graph.num_vertices())
            .field("num_edges", &self.graph.num_edges())
            .field("prepared_ps", &self.prepared_ps())
            .finish_non_exhaustive()
    }
}

/// Odd multiplier of the content hash (`2^64 / φ`).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one word into the content hash: one multiply and one rotate, which
/// brings the product's well-mixed high bits down to where the next word
/// lands.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MIX).rotate_left(31)
}

/// The content identity of a graph: a word-at-a-time hash of the vertex
/// count, the edge count and every edge `(u, v)`, `u < v`, in lexicographic
/// order, each edge folded in as the word `u << 32 | v`. A final avalanche
/// (MurmurHash3's `fmix64`) spreads the last words over every bit.
fn content_id(graph: &Graph) -> u64 {
    let n = graph.num_vertices();
    let mut h = mix(mix(MIX, n as u64), graph.num_edges() as u64);
    for u in 0..n as u32 {
        let row = graph.neighbors(u);
        let high = u64::from(u) << 32;
        for &v in &row[row.partition_point(|&v| v < u)..] {
            h = mix(h, high | u64::from(v));
        }
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    #[test]
    fn content_ids_match_the_reference_vectors() {
        // Snapshot ids appear in every query payload, so the hash is pinned.
        for (name, graph, want) in [
            ("empty", Graph::new(0), 0x5201_1ba9_62de_7228_u64),
            ("path(4)", gen::path_graph(4), 0x03b0_ff82_1da1_41ed),
            ("complete(5)", gen::complete_graph(5), 0x5d04_6378_f7a9_99de),
            (
                "er(40,0.2,7)",
                gen::erdos_renyi(40, 0.2, 7),
                0x05db_c906_4fe3_d495,
            ),
        ] {
            let id = GraphSnapshot::build(graph).id();
            assert_eq!(id, want, "{name}: {id:#018x}");
        }
    }

    #[test]
    fn every_graph_on_six_vertices_has_its_own_id() {
        let pairs: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| ((u + 1)..6).map(move |v| (u, v)))
            .collect();
        let mut ids: Vec<u64> = (0..1u32 << pairs.len())
            .map(|mask| {
                let edges: Vec<(u32, u32)> = (0..pairs.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| pairs[i])
                    .collect();
                content_id(&Graph::from_edges(6, &edges).unwrap())
            })
            .collect();
        ids.extend((0..6).map(|n| content_id(&Graph::new(n))));
        let all = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all);
    }

    #[test]
    fn builder_validates_sizes_and_shards() {
        let err = GraphSnapshot::builder(gen::path_graph(4))
            .prepare_p(2)
            .build()
            .unwrap_err();
        assert_eq!(err, SnapshotError::CliqueSizeTooSmall { p: 2 });
        let err = GraphSnapshot::builder(gen::path_graph(4))
            .target_shards(0)
            .build()
            .unwrap_err();
        assert_eq!(err, SnapshotError::ZeroShards);
        assert!(format!("{err}").contains("shard target"));
    }

    #[test]
    fn prepared_sizes_default_sort_and_dedup() {
        let snapshot = GraphSnapshot::build(gen::path_graph(4));
        assert_eq!(snapshot.prepared_ps(), DEFAULT_PREPARED_PS);
        let snapshot = GraphSnapshot::builder(gen::path_graph(4))
            .prepare_p(5)
            .prepare_p(3)
            .prepare_p(5)
            .build()
            .expect("valid");
        assert_eq!(snapshot.prepared_ps(), vec![3, 5]);
        assert!(snapshot.is_prepared(3));
        assert!(!snapshot.is_prepared(4));
    }

    #[test]
    fn content_id_tracks_graph_structure() {
        let a = GraphSnapshot::build(gen::erdos_renyi(40, 0.2, 7));
        let same = GraphSnapshot::build(gen::erdos_renyi(40, 0.2, 7));
        let reseeded = GraphSnapshot::build(gen::erdos_renyi(40, 0.2, 8));
        assert_eq!(a.id(), same.id(), "identical graphs share an identity");
        assert_ne!(a.id(), reseeded.id(), "different edges, different identity");
        // Adding one edge changes the identity.
        let path = GraphSnapshot::build(gen::path_graph(4));
        let grown = gen::path_graph(4)
            .with_edges_added(&[(0, 3)])
            .expect("edge fits");
        assert_ne!(path.id(), GraphSnapshot::build(grown).id());
    }

    #[test]
    fn duplicate_edges_collapse_to_one_identity() {
        // The dedup contract (see `GraphSnapshot::builder`): duplicates —
        // repeated or re-oriented — are merged by `Graph::from_edges`, so
        // the snapshot and its identity depend only on the simple graph.
        let clean = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let noisy =
            Graph::from_edges(4, &[(1, 0), (0, 1), (2, 1), (2, 3), (3, 2), (1, 2)]).unwrap();
        assert_eq!(clean, noisy, "CSR form is canonical in the edge set");
        let a = GraphSnapshot::build(clean);
        let b = GraphSnapshot::build(noisy);
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b, "identical snapshots, byte for byte");
        // And the inverse direction: a genuinely different edge set (one
        // extra edge, not a duplicate) must change the identity.
        let extra = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        assert_ne!(a.id(), GraphSnapshot::build(extra).id());
    }

    #[test]
    fn apply_batch_matches_a_from_scratch_build() {
        let g = gen::erdos_renyi(50, 0.2, 11);
        let snapshot = GraphSnapshot::builder(g.clone())
            .prepare_p(3)
            .prepare_p(4)
            .target_shards(16)
            .build()
            .unwrap();
        let deletes: Vec<(u32, u32)> = g.edges().step_by(9).take(6).collect();
        let inserts: Vec<(u32, u32)> = gen::erdos_renyi(50, 0.04, 99)
            .edges()
            .filter(|&(u, v)| !g.has_edge(u, v))
            .take(6)
            .collect();
        let batch = EdgeBatch::new(&inserts, &deletes).unwrap();
        let (next, applied) = snapshot.apply_batch(&batch).unwrap();
        assert_eq!(applied.inserted, inserts);
        assert_eq!(applied.deleted, deletes);
        assert_eq!(applied.len(), 12);
        // The reference is built from the mutated edge list, not from the
        // derived snapshot's own graph.
        let mut edges: Vec<(u32, u32)> = g.edges().filter(|e| !deletes.contains(e)).collect();
        edges.extend(&inserts);
        let scratch = GraphSnapshot::builder(Graph::from_edges(50, &edges).unwrap())
            .prepare_p(3)
            .prepare_p(4)
            .target_shards(16)
            .build()
            .unwrap();
        assert_eq!(next, scratch, "derived snapshot equals a cold build");
        assert_ne!(next.id(), snapshot.id());
        assert_eq!(next.prepared_ps(), vec![3, 4]);
    }

    #[test]
    fn noop_batches_preserve_the_content_identity() {
        let g = gen::erdos_renyi(30, 0.2, 3);
        let snapshot = GraphSnapshot::build(g.clone());
        // The empty batch.
        let (same, applied) = snapshot.apply_batch(&EdgeBatch::empty()).unwrap();
        assert!(applied.is_noop());
        assert_eq!(same.id(), snapshot.id());
        assert_eq!(same, snapshot);
        // Inserts that all exist + deletes that all miss: still a no-op.
        let existing: Vec<(u32, u32)> = g.edges().take(4).collect();
        let missing: Vec<(u32, u32)> = (0..30u32)
            .flat_map(|u| ((u + 1)..30).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .take(4)
            .collect();
        let batch = EdgeBatch::new(&existing, &missing).unwrap();
        assert!(!batch.is_empty(), "the *batch* is non-empty");
        let (same, applied) = snapshot.apply_batch(&batch).unwrap();
        assert!(applied.is_noop());
        assert_eq!(
            same.id(),
            snapshot.id(),
            "no-op churn must not invalidate caches"
        );
        assert_eq!(same, snapshot);
    }

    #[test]
    fn apply_batch_rejects_out_of_range_endpoints() {
        let snapshot = GraphSnapshot::build(gen::path_graph(4));
        let batch = EdgeBatch::new(&[(0, 40)], &[]).unwrap();
        let err = snapshot.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Batch(BatchError::VertexOutOfRange { vertex: 40, n: 4 })
        );
        assert!(format!("{err}").contains("edge batch rejected"));
    }
}
