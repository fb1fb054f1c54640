//! The typed query model: what can be asked of a snapshot, validated up
//! front.
//!
//! A [`Query`] is only obtainable through [`QueryBuilder::build`], which
//! checks the request against the target [`GraphSnapshot`] — kind present and
//! unambiguous, clique size prepared, vertices in range — and returns a typed
//! [`QueryError`] instead of panicking (the validated-builder contract the
//! engine's `EngineBuilder` established; see `DESIGN.md` §11). A built query
//! carries the snapshot's content identity, so executing it against a
//! different snapshot is itself a typed error. The query value itself is the
//! cache key: its `Hash`/`Eq` cover exactly the fields of the canonical
//! `(snapshot id, query)` identity string.

use crate::snapshot::GraphSnapshot;
use std::fmt;

/// What a query asks for. Carried inside [`Query`]; constructed via the
/// [`QueryBuilder`] kind setters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// The number of `p`-cliques in the snapshot.
    CountKp,
    /// The first `k` cliques of the deterministic enumeration order,
    /// returned in canonical sorted order.
    FirstK {
        /// How many cliques to return (at most).
        k: usize,
    },
    /// Every `p`-clique containing one vertex.
    ContainingVertex {
        /// The vertex all returned cliques must contain.
        vertex: u32,
    },
    /// Every `p`-clique containing one edge.
    ContainingEdge {
        /// One endpoint of the edge.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Whether at least one `p`-clique exists.
    Exists,
}

impl QueryKind {
    /// The kind's canonical name (used in identities and error messages).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::CountKp => "count-kp",
            QueryKind::FirstK { .. } => "first-k",
            QueryKind::ContainingVertex { .. } => "containing-vertex",
            QueryKind::ContainingEdge { .. } => "containing-edge",
            QueryKind::Exists => "exists",
        }
    }
}

/// A validated query against one specific snapshot.
///
/// Obtainable only via [`QueryBuilder::build`], so holding one proves the
/// request was well-formed for the snapshot whose identity it carries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    snapshot_id: u64,
    p: usize,
    seed: u64,
    budget: Option<u64>,
    kind: QueryKind,
}

impl Query {
    /// The content identity of the snapshot this query was validated
    /// against.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// The clique size queried.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The reproducibility seed carried in the cache identity.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-query work budget — the maximum number of cliques one
    /// execution may visit — or `None` for an unbounded query.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// What the query asks for.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The canonical `(snapshot id, query)` identity: a JSON object with a
    /// fixed field order, stable across runs and hosts. Equal queries render
    /// identically; any parameter change (kind, `p`, seed, budget, snapshot)
    /// changes the string — it renders exactly the fields the cache keys on
    /// and is part of
    /// [`QueryResponse::to_json`](crate::QueryResponse::to_json).
    pub fn canonical_identity(&self) -> String {
        let mut s = format!("{{\"kind\":\"{}\"", self.kind.name());
        match self.kind {
            QueryKind::FirstK { k } => s.push_str(&format!(",\"k\":{k}")),
            QueryKind::ContainingVertex { vertex } => s.push_str(&format!(",\"vertex\":{vertex}")),
            QueryKind::ContainingEdge { u, v } => s.push_str(&format!(",\"u\":{u},\"v\":{v}")),
            QueryKind::CountKp | QueryKind::Exists => {}
        }
        s.push_str(&format!(",\"p\":{},\"seed\":{}", self.p, self.seed));
        // The budget participates only when set, so every pre-budget
        // identity (and thus every recorded response payload) is unchanged
        // byte for byte.
        if let Some(budget) = self.budget {
            s.push_str(&format!(",\"budget\":{budget}"));
        }
        s.push_str(&format!(",\"snapshot\":\"{:016x}\"}}", self.snapshot_id));
        s
    }
}

/// Why a [`QueryBuilder`] refused to build, or a
/// [`QueryService`](crate::QueryService) refused to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// No kind setter (`count`, `first`, …) was called.
    MissingKind,
    /// Two kind setters were called; the request is ambiguous.
    ConflictingKinds {
        /// The kind selected first.
        first: &'static str,
        /// The kind that tried to replace it.
        second: &'static str,
    },
    /// No clique size was given.
    MissingCliqueSize,
    /// The clique size was below 3 (smaller cliques are trivial scans the
    /// service does not index).
    CliqueSizeTooSmall {
        /// The offending clique size.
        p: usize,
    },
    /// The snapshot did not prepare shard plans for this clique size.
    UnpreparedCliqueSize {
        /// The requested clique size.
        p: usize,
        /// The sizes the snapshot prepared.
        prepared: Vec<usize>,
    },
    /// A `FirstK` query with `k = 0` (always empty; certainly a bug).
    ZeroLimit,
    /// A work budget of zero (every execution would be refused; drop the
    /// budget instead for an unbounded query).
    ZeroBudget,
    /// The enumeration hit the query's work budget before completing; the
    /// partial result is discarded and nothing is cached.
    BudgetExceeded {
        /// The budget the query carried.
        budget: u64,
    },
    /// The number of `p`-cliques does not fit in a `u64`, so a `CountKp`
    /// query cannot answer it. Never cached.
    CountOverflow {
        /// The clique size queried.
        p: usize,
    },
    /// A vertex parameter outside the snapshot's vertex range.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: u32,
        /// The snapshot's vertex count.
        num_vertices: usize,
    },
    /// A `ContainingEdge` query with both endpoints equal.
    SelfLoopEdge {
        /// The repeated endpoint.
        vertex: u32,
    },
    /// A query built against one snapshot was executed against another.
    SnapshotMismatch {
        /// The executing service's snapshot identity.
        expected: u64,
        /// The identity the query was built against.
        got: u64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingKind => write!(f, "no query kind selected"),
            QueryError::ConflictingKinds { first, second } => {
                write!(f, "conflicting query kinds: {first} then {second}")
            }
            QueryError::MissingCliqueSize => write!(f, "no clique size given (call .p(...))"),
            QueryError::CliqueSizeTooSmall { p } => {
                write!(f, "clique size must be at least 3, got {p}")
            }
            QueryError::UnpreparedCliqueSize { p, prepared } => {
                write!(
                    f,
                    "snapshot did not prepare p = {p} (prepared: {prepared:?})"
                )
            }
            QueryError::ZeroLimit => write!(f, "first-k limit must be at least 1"),
            QueryError::ZeroBudget => write!(
                f,
                "work budget must be at least 1 (omit the budget for an unbounded query)"
            ),
            QueryError::BudgetExceeded { budget } => write!(
                f,
                "work budget exhausted: the enumeration would visit more than {budget} cliques"
            ),
            QueryError::CountOverflow { p } => write!(
                f,
                "the number of {p}-cliques exceeds the largest count a query can return ({})",
                u64::MAX
            ),
            QueryError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a {num_vertices}-vertex snapshot"
            ),
            QueryError::SelfLoopEdge { vertex } => {
                write!(f, "edge query endpoints must differ, got {vertex} twice")
            }
            QueryError::SnapshotMismatch { expected, got } => write!(
                f,
                "query was built against snapshot {got:016x}, service holds {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Validating builder for [`Query`] — the only way to obtain one.
///
/// Pick exactly one kind, set the clique size, optionally tag a seed, then
/// [`build`](QueryBuilder::build) against the target snapshot:
///
/// ```
/// use graphcore::gen;
/// use query::{GraphSnapshot, QueryBuilder};
///
/// let snapshot = GraphSnapshot::build(gen::complete_graph(6));
/// let query = QueryBuilder::new().p(4).count().build(&snapshot)?;
/// assert_eq!(query.p(), 4);
/// # Ok::<(), query::QueryError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct QueryBuilder {
    p: Option<usize>,
    seed: u64,
    budget: Option<u64>,
    kind: Option<QueryKind>,
    conflict: Option<(&'static str, &'static str)>,
}

impl QueryBuilder {
    /// An empty builder (no kind, no clique size, seed 0).
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Sets the clique size to query.
    #[must_use]
    pub fn p(mut self, p: usize) -> Self {
        self.p = Some(p);
        self
    }

    /// Tags the query with a reproducibility seed (default 0). The seed is
    /// part of the canonical identity, so results produced under different
    /// seeds never share cache entries.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the work one execution may spend on this query: the enumeration
    /// may visit at most `budget` cliques before the service refuses with
    /// [`QueryError::BudgetExceeded`] instead of answering. Budgeted queries
    /// always enumerate sequentially, and the budget joins the canonical
    /// identity (only when set), so budgeted and unbounded variants of the
    /// same request never share cache entries.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Asks for the number of `p`-cliques.
    #[must_use]
    pub fn count(self) -> Self {
        self.set_kind(QueryKind::CountKp)
    }

    /// Asks for the first `k` cliques of the deterministic enumeration
    /// order.
    #[must_use]
    pub fn first(self, k: usize) -> Self {
        self.set_kind(QueryKind::FirstK { k })
    }

    /// Asks for every `p`-clique containing `vertex`.
    #[must_use]
    pub fn containing_vertex(self, vertex: u32) -> Self {
        self.set_kind(QueryKind::ContainingVertex { vertex })
    }

    /// Asks for every `p`-clique containing the edge `{u, v}`.
    #[must_use]
    pub fn containing_edge(self, u: u32, v: u32) -> Self {
        self.set_kind(QueryKind::ContainingEdge { u, v })
    }

    /// Asks whether at least one `p`-clique exists.
    #[must_use]
    pub fn exists(self) -> Self {
        self.set_kind(QueryKind::Exists)
    }

    fn set_kind(mut self, kind: QueryKind) -> Self {
        if let Some(existing) = self.kind {
            if self.conflict.is_none() {
                self.conflict = Some((existing.name(), kind.name()));
            }
        } else {
            self.kind = Some(kind);
        }
        self
    }

    /// Validates the request against `snapshot` and produces the query.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] naming the first violated rule: ambiguous or
    /// missing kind, missing/too-small/unprepared clique size, zero `first`
    /// limit, out-of-range vertex, or a self-loop edge.
    pub fn build(self, snapshot: &GraphSnapshot) -> Result<Query, QueryError> {
        if let Some((first, second)) = self.conflict {
            return Err(QueryError::ConflictingKinds { first, second });
        }
        let kind = self.kind.ok_or(QueryError::MissingKind)?;
        let p = self.p.ok_or(QueryError::MissingCliqueSize)?;
        if p < 3 {
            return Err(QueryError::CliqueSizeTooSmall { p });
        }
        if !snapshot.is_prepared(p) {
            return Err(QueryError::UnpreparedCliqueSize {
                p,
                prepared: snapshot.prepared_ps(),
            });
        }
        if self.budget == Some(0) {
            return Err(QueryError::ZeroBudget);
        }
        let num_vertices = snapshot.graph().num_vertices();
        let check_vertex = |vertex: u32| {
            if (vertex as usize) < num_vertices {
                Ok(())
            } else {
                Err(QueryError::VertexOutOfRange {
                    vertex,
                    num_vertices,
                })
            }
        };
        match kind {
            QueryKind::FirstK { k: 0 } => return Err(QueryError::ZeroLimit),
            QueryKind::ContainingVertex { vertex } => check_vertex(vertex)?,
            QueryKind::ContainingEdge { u, v } => {
                if u == v {
                    return Err(QueryError::SelfLoopEdge { vertex: u });
                }
                check_vertex(u)?;
                check_vertex(v)?;
            }
            _ => {}
        }
        Ok(Query {
            snapshot_id: snapshot.id(),
            p,
            seed: self.seed,
            budget: self.budget,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    fn snapshot() -> GraphSnapshot {
        GraphSnapshot::build(gen::erdos_renyi(30, 0.3, 5))
    }

    #[test]
    fn builder_reports_each_validation_error() {
        let s = snapshot();
        assert_eq!(
            QueryBuilder::new().p(4).build(&s),
            Err(QueryError::MissingKind)
        );
        assert_eq!(
            QueryBuilder::new().count().build(&s),
            Err(QueryError::MissingCliqueSize)
        );
        assert_eq!(
            QueryBuilder::new().p(2).count().build(&s),
            Err(QueryError::CliqueSizeTooSmall { p: 2 })
        );
        assert_eq!(
            QueryBuilder::new().p(9).count().build(&s),
            Err(QueryError::UnpreparedCliqueSize {
                p: 9,
                prepared: vec![3, 4, 5],
            })
        );
        assert_eq!(
            QueryBuilder::new().p(3).first(0).build(&s),
            Err(QueryError::ZeroLimit)
        );
        assert_eq!(
            QueryBuilder::new().p(3).budget(0).count().build(&s),
            Err(QueryError::ZeroBudget)
        );
        assert_eq!(
            QueryBuilder::new().p(3).containing_vertex(30).build(&s),
            Err(QueryError::VertexOutOfRange {
                vertex: 30,
                num_vertices: 30,
            })
        );
        assert_eq!(
            QueryBuilder::new().p(3).containing_edge(7, 7).build(&s),
            Err(QueryError::SelfLoopEdge { vertex: 7 })
        );
        assert_eq!(
            QueryBuilder::new().p(3).containing_edge(0, 31).build(&s),
            Err(QueryError::VertexOutOfRange {
                vertex: 31,
                num_vertices: 30,
            })
        );
        assert_eq!(
            QueryBuilder::new().p(3).count().exists().build(&s),
            Err(QueryError::ConflictingKinds {
                first: "count-kp",
                second: "exists",
            })
        );
        // Errors render.
        let err = QueryBuilder::new().p(9).count().build(&s).unwrap_err();
        assert!(format!("{err}").contains("did not prepare"));
    }

    #[test]
    fn canonical_identity_is_stable_and_parameter_sensitive() {
        let s = snapshot();
        let count = QueryBuilder::new().p(4).count().build(&s).expect("valid");
        assert_eq!(
            count.canonical_identity(),
            format!(
                "{{\"kind\":\"count-kp\",\"p\":4,\"seed\":0,\"snapshot\":\"{:016x}\"}}",
                s.id()
            )
        );
        // Every parameter participates in the identity.
        let variants = [
            QueryBuilder::new().p(3).count().build(&s).expect("valid"),
            QueryBuilder::new()
                .p(4)
                .seed(1)
                .count()
                .build(&s)
                .expect("valid"),
            QueryBuilder::new().p(4).first(2).build(&s).expect("valid"),
            QueryBuilder::new()
                .p(4)
                .budget(100)
                .count()
                .build(&s)
                .expect("valid"),
            QueryBuilder::new().p(4).exists().build(&s).expect("valid"),
            QueryBuilder::new()
                .p(4)
                .containing_vertex(3)
                .build(&s)
                .expect("valid"),
            QueryBuilder::new()
                .p(4)
                .containing_edge(1, 2)
                .build(&s)
                .expect("valid"),
        ];
        for variant in &variants {
            assert_ne!(count.canonical_identity(), variant.canonical_identity());
        }
        // Rebuilding the same request reproduces the identity byte for byte.
        let again = QueryBuilder::new().p(4).count().build(&s).expect("valid");
        assert_eq!(count, again);
        // A budget renders between the seed and the snapshot — and only when
        // one was set, so unbounded identities never change.
        let budgeted = QueryBuilder::new()
            .p(4)
            .budget(100)
            .count()
            .build(&s)
            .expect("valid");
        assert_eq!(budgeted.budget(), Some(100));
        assert_eq!(
            budgeted.canonical_identity(),
            format!(
                "{{\"kind\":\"count-kp\",\"p\":4,\"seed\":0,\"budget\":100,\"snapshot\":\"{:016x}\"}}",
                s.id()
            )
        );
        assert_eq!(count.budget(), None);
        assert!(!count.canonical_identity().contains("budget"));
    }
}
