//! Immutable, shareable graph snapshots: the build-once half of the
//! build-once/query-many split.
//!
//! A [`GraphSnapshot`] owns the graph (CSR form) together with every artifact
//! the ordered clique search needs — the degeneracy ordering, the oriented
//! DAG and the adjacency bitsets, bundled as a
//! [`CliqueIndex`] — plus one balanced
//! [`ShardPlan`] per prepared clique size. Everything is built exactly once
//! by [`SnapshotBuilder::build`] and never mutated afterwards, so a snapshot
//! behind an [`Arc`] serves any number of concurrent queries through `&self`.
//!
//! Snapshots are content-addressed: [`GraphSnapshot::id`] is the FNV-1a hash
//! of the graph's vertex count and edge list, so two snapshots of identical
//! graphs share cached results and any structural change produces a fresh
//! identity (see `DESIGN.md` §11).

use graphcore::cliques::{CliqueIndex, ShardPlan};
use graphcore::{AppliedBatch, BatchError, EdgeBatch, Graph, KernelChoice, KernelStrategy};
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
    kernel: KernelStrategy,
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

    /// Selects the enumeration kernel every query against the snapshot runs
    /// with (default [`KernelStrategy::Auto`], which resolves once per
    /// snapshot by the built index's degeneracy). Like the shard target, the
    /// knob is a pure performance choice: both kernels emit byte-identical
    /// listings, so cached results — keyed by content identity — stay valid
    /// across kernel settings.
    #[must_use]
    pub fn kernel(mut self, kernel: KernelStrategy) -> Self {
        self.kernel = kernel;
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
        Ok(GraphSnapshot::assemble(
            self.graph,
            ps,
            self.target_shards,
            self.kernel,
        ))
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
    /// The kernel strategy queries run with; propagated to derived snapshots
    /// like the shard target. Deliberately **not** part of the content
    /// identity: both kernels emit byte-identical listings, so cached
    /// results transfer across kernel settings.
    kernel: KernelStrategy,
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
            kernel: KernelStrategy::Auto,
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
    fn assemble(
        graph: Graph,
        ps: Vec<usize>,
        target_shards: usize,
        kernel: KernelStrategy,
    ) -> GraphSnapshot {
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
            kernel,
        }
    }

    /// Wraps the snapshot for sharing across threads and services.
    pub fn into_shared(self) -> Arc<GraphSnapshot> {
        Arc::new(self)
    }

    /// The content identity: FNV-1a over the vertex count and the sorted edge
    /// list. Equal for structurally identical graphs, different after any
    /// edge/vertex change — the first half of every cache key.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshotted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared clique index (ordering + DAG + bitsets).
    pub fn index(&self) -> &CliqueIndex {
        &self.index
    }

    /// The kernel strategy queries against this snapshot run with.
    pub fn kernel(&self) -> KernelStrategy {
        self.kernel
    }

    /// What the snapshot's strategy resolves to on its own index — a pure
    /// function of (strategy, degeneracy) plus the trie node budget.
    pub fn resolved_kernel(&self) -> KernelChoice {
        self.index.resolve_kernel(self.kernel)
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
    /// prepared sizes, shard target and kernel) together with the batch's
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
        let snapshot =
            GraphSnapshot::assemble(graph, self.prepared_ps(), self.target_shards, self.kernel);
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

/// Incremental 64-bit FNV-1a hasher over byte streams — the same hash the
/// bench harness keys its result store with (`bench::store::fnv1a`),
/// re-implemented here because `bench` depends on this crate. Snapshot ids
/// appear in every query payload, so its output is pinned by reference
/// vectors.
struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis (64-bit).
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime (64-bit).
    const PRIME: u64 = 0x100_0000_01b3;

    /// Starts a hash at the FNV offset basis.
    fn new() -> Fnv1a {
        Fnv1a(Fnv1a::OFFSET)
    }

    /// Folds `bytes` into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Fnv1a::PRIME);
        }
    }

    /// Folds a `u32` (little-endian bytes) into the hash.
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian bytes) into the hash.
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The content identity of a graph: vertex count, edge count, then every
/// edge in the (deterministic, sorted) CSR traversal order.
fn content_id(graph: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(graph.num_vertices() as u64);
    h.write_u64(graph.num_edges() as u64);
    for (u, v) in graph.edges() {
        h.write_u32(u);
        h.write_u32(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Classic FNV-1a test vectors.
        for (bytes, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::new();
            h.write(bytes);
            assert_eq!(h.finish(), want, "{bytes:?}");
        }
    }

    #[test]
    fn incremental_writes_match_one_shot_hashing() {
        let mut words = Fnv1a::new();
        words.write_u32(7);
        words.write_u64(11);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&11u64.to_le_bytes());
        let mut one_shot = Fnv1a::new();
        one_shot.write(&bytes);
        assert_eq!(words.finish(), one_shot.finish());
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
    fn kernel_strategy_is_remembered_but_never_feeds_the_identity() {
        let g = gen::erdos_renyi(40, 0.2, 5);
        let snapshot = GraphSnapshot::builder(g.clone())
            .kernel(KernelStrategy::Trie)
            .build()
            .unwrap();
        assert_eq!(snapshot.kernel(), KernelStrategy::Trie);
        assert_eq!(snapshot.resolved_kernel(), KernelChoice::Trie);
        // Derived snapshots inherit the knob, like the shard target.
        let removed: Vec<(u32, u32)> = g.edges().take(1).collect();
        let batch = EdgeBatch::new(&[], &removed).unwrap();
        let (next, _) = snapshot.apply_batch(&batch).unwrap();
        assert_eq!(next.kernel(), KernelStrategy::Trie);
        // The knob is a performance choice, not content: the same graph under
        // the default strategy carries the same identity, so cached results
        // transfer across kernel settings.
        assert_eq!(GraphSnapshot::build(g).id(), snapshot.id());
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
