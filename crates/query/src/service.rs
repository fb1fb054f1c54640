//! The query executor: single queries and deterministic batches over one
//! shared snapshot.
//!
//! A [`QueryService`] holds an [`Arc<GraphSnapshot>`], a resolved thread
//! grant and the content-addressed result cache. Execution is `&self`
//! throughout — all mutable state is per call or behind the cache lock — so
//! one service instance answers concurrent queries from many threads.
//!
//! Batches are deterministic by construction: [`QueryService::execute_batch`]
//! answers cache hits and repeats on the calling thread, fans the remaining
//! misses out through [`graphcore::ordered_merge`] (the same orchestrator
//! behind the sharded enumeration and the cluster pipeline) and assembles
//! the responses on the calling thread in request order. Each response's
//! deterministic payload
//! ([`QueryResponse::to_json`]) is byte-identical at any thread count and
//! whether or not the cache was warm; the execution-shape fields live in
//! [`QueryReport`], which is deliberately excluded from that payload — the
//! same split `RunReport` makes for `threads_used` (see `DESIGN.md` §11).

use crate::cache::{CacheStats, QueryCache};
use crate::model::{Query, QueryError, QueryKind};
use crate::snapshot::GraphSnapshot;
use cliquelist::Parallelism;
use graphcore::Clique;
use std::collections::HashSet;
use std::sync::Arc;

/// How one query was executed: the cache/fan-out facts that vary with the
/// host, kept out of the deterministic response payload on purpose (the
/// `RunReport`/`ParallelismSummary` precedent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryReport {
    /// Whether the result was served from the cache (the enumeration was
    /// short-circuited entirely).
    pub cache_hit: bool,
    /// Shards enumerated (1 for unsharded sequential paths, 0 on a cache
    /// hit).
    pub shards: usize,
    /// Threads this query's own enumeration fanned out to, the calling
    /// thread included (1 for sequential paths and cache hits; the batch
    /// fan-out is bounded by [`QueryService::threads`], not reported here).
    pub threads_used: usize,
}

/// The report of a query answered from the cache.
const CACHE_HIT: QueryReport = QueryReport {
    cache_hit: true,
    shards: 0,
    threads_used: 1,
};

/// What a query produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The number of `p`-cliques ([`QueryKind::CountKp`]).
    Count(u64),
    /// Cliques in canonical sorted order ([`QueryKind::FirstK`],
    /// [`QueryKind::ContainingVertex`], [`QueryKind::ContainingEdge`]).
    Cliques(Vec<Clique>),
    /// Whether any `p`-clique exists ([`QueryKind::Exists`]).
    Exists(bool),
}

/// One answered query: the request, its outcome and the execution report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResponse {
    /// The validated request this response answers.
    pub query: Query,
    /// The deterministic result.
    pub outcome: QueryOutcome,
    /// How the execution went (cache, shards, threads). Not part of
    /// [`QueryResponse::to_json`].
    pub report: QueryReport,
}

impl QueryResponse {
    /// The deterministic payload: the outcome plus the query's canonical
    /// identity, with a fixed field order. Byte-identical across thread
    /// counts, cache states, runs and hosts — this is what the differential
    /// battery and the bench trajectory gate compare. [`QueryReport`] is
    /// deliberately excluded.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"outcome\":");
        match &self.outcome {
            QueryOutcome::Count(count) => s.push_str(&format!("{{\"count\":{count}}}")),
            QueryOutcome::Exists(exists) => s.push_str(&format!("{{\"exists\":{exists}}}")),
            QueryOutcome::Cliques(cliques) => {
                s.push_str("{\"cliques\":[");
                for (i, clique) in cliques.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('[');
                    for (j, v) in clique.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&v.to_string());
                    }
                    s.push(']');
                }
                s.push_str("]}");
            }
        }
        s.push_str(",\"query\":");
        s.push_str(&self.query.canonical_identity());
        s.push('}');
        s
    }
}

/// Executes queries against one shared [`GraphSnapshot`].
///
/// ```
/// use graphcore::gen;
/// use query::{GraphSnapshot, QueryBuilder, QueryService};
///
/// let snapshot = GraphSnapshot::build(gen::complete_graph(8)).into_shared();
/// let service = QueryService::new(snapshot.clone());
/// let query = QueryBuilder::new().p(4).count().build(&snapshot)?;
/// let response = service.execute(&query)?;
/// assert_eq!(response.outcome, query::QueryOutcome::Count(70));
/// # Ok::<(), query::QueryError>(())
/// ```
pub struct QueryService {
    snapshot: Arc<GraphSnapshot>,
    threads: usize,
    cache: QueryCache,
}

impl QueryService {
    /// A service over `snapshot` with the [`Parallelism::Auto`] thread grant
    /// (the `CLIQUELIST_THREADS` environment knob, available parallelism
    /// otherwise).
    pub fn new(snapshot: Arc<GraphSnapshot>) -> QueryService {
        QueryService::with_parallelism(snapshot, Parallelism::Auto)
    }

    /// A service with an explicit [`Parallelism`] setting. Thread counts
    /// shape wall-clock time only; every response payload is byte-identical
    /// at any setting.
    pub fn with_parallelism(snapshot: Arc<GraphSnapshot>, parallelism: Parallelism) -> Self {
        QueryService {
            snapshot,
            threads: parallelism.threads().max(1),
            cache: QueryCache::new(),
        }
    }

    /// The shared snapshot this service answers queries about.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.snapshot
    }

    /// The resolved thread grant (1 = sequential): an upper bound on every
    /// fan-out this service runs, each of which the host's cores and its
    /// work items cap further (`graphcore::ordered_merge::fanout`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Point-in-time cache counters (one probe per executed query).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached result and zeroes the counters.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Executes one query, consulting the cache first.
    ///
    /// # Errors
    ///
    /// [`QueryError::SnapshotMismatch`] when the query was built against a
    /// different snapshot, [`QueryError::UnpreparedCliqueSize`] when this
    /// snapshot (despite an identical graph) did not prepare the query's
    /// clique size, [`QueryError::BudgetExceeded`] when the query carries a
    /// work budget the enumeration exhausted (the partial result is
    /// discarded, never cached), [`QueryError::CountOverflow`] when a count
    /// does not fit in a `u64` (never cached either).
    pub fn execute(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        self.check(query)?;
        self.run(query, self.threads)
    }

    /// Executes a batch, returning responses in request order.
    ///
    /// The calling thread probes the cache for every query, in request
    /// order, and answers each hit itself. The first occurrence of each miss
    /// is computed — fanned out through [`graphcore::ordered_merge`], each
    /// query's own enumeration single-threaded — and cached on the calling
    /// thread in request order; a repeat of it later in the batch is then a
    /// cache hit. So a warm batch never leaves the calling thread, the
    /// response sequence — and every [`QueryResponse::to_json`] payload in
    /// it — is byte-identical at any thread count, and so are every
    /// [`QueryReport`] and the cache counters after the batch.
    ///
    /// # Errors
    ///
    /// Validates every query up front (see [`QueryService::execute`]) and
    /// returns the first error before executing anything. A
    /// [`QueryError::BudgetExceeded`] or [`QueryError::CountOverflow`]
    /// surfaces at execution time instead; the batch stops at the first
    /// failed query in *request* order, so which error a mixed batch reports
    /// is deterministic at any thread count (the misses before it are
    /// computed and cached, those after it are not).
    pub fn execute_batch(&self, queries: &[Query]) -> Result<Vec<QueryResponse>, QueryError> {
        for query in queries {
            self.check(query)?;
        }
        // Probe in request order: a hit is answered now, the first
        // occurrence of a miss is queued for the fan-out, and a repeat of a
        // queued miss waits until that miss is cached.
        let mut answers: Vec<Option<QueryResponse>> = Vec::with_capacity(queries.len());
        let mut misses: Vec<usize> = Vec::new();
        let mut queued: HashSet<&Query> = HashSet::new();
        for (i, query) in queries.iter().enumerate() {
            let answer = if queued.contains(query) {
                None
            } else if let Some(outcome) = self.cache.lookup(query) {
                Some(QueryResponse {
                    query: query.clone(),
                    outcome,
                    report: CACHE_HIT,
                })
            } else {
                queued.insert(query);
                misses.push(i);
                None
            };
            answers.push(answer);
        }
        let mut first_error = None;
        graphcore::ordered_merge::ordered_merge(
            misses.len(),
            self.threads,
            |m| (misses[m], self.compute(&queries[misses[m]], 1)),
            |(i, result)| match result {
                Ok((outcome, shards, threads_used)) => {
                    answers[i] = Some(self.store(&queries[i], outcome, shards, threads_used));
                    true
                }
                Err(error) => {
                    first_error = Some(error);
                    false
                }
            },
        );
        if let Some(error) = first_error {
            return Err(error);
        }
        // Every unanswered query now repeats a cached miss: a hit.
        queries
            .iter()
            .zip(answers)
            .map(|(query, answer)| answer.map_or_else(|| self.run(query, 1), Ok))
            .collect()
    }

    /// The execution-time validation: the query must target this service's
    /// snapshot and a prepared clique size.
    fn check(&self, query: &Query) -> Result<(), QueryError> {
        if query.snapshot_id() != self.snapshot.id() {
            return Err(QueryError::SnapshotMismatch {
                expected: self.snapshot.id(),
                got: query.snapshot_id(),
            });
        }
        // Content-identical snapshots can differ in prepared sizes, so the
        // builder's check does not transfer; re-verify against *this*
        // snapshot.
        if self.snapshot.plan_for(query.p()).is_none() {
            return Err(QueryError::UnpreparedCliqueSize {
                p: query.p(),
                prepared: self.snapshot.prepared_ps(),
            });
        }
        Ok(())
    }

    /// Cache-or-compute for one pre-validated query. `inner_threads` is the
    /// grant for this query's own enumeration (1 inside batches, whose
    /// parallelism is the fan-out across queries). Budget-exceeded failures
    /// are never cached — only completed outcomes enter the cache.
    fn run(&self, query: &Query, inner_threads: usize) -> Result<QueryResponse, QueryError> {
        if let Some(outcome) = self.cache.lookup(query) {
            return Ok(QueryResponse {
                query: query.clone(),
                outcome,
                report: CACHE_HIT,
            });
        }
        let (outcome, shards, threads_used) = self.compute(query, inner_threads)?;
        Ok(self.store(query, outcome, shards, threads_used))
    }

    /// Caches a computed outcome and wraps it in its (cache-miss) response.
    fn store(
        &self,
        query: &Query,
        outcome: QueryOutcome,
        shards: usize,
        threads_used: usize,
    ) -> QueryResponse {
        self.cache.insert(query.clone(), outcome.clone());
        QueryResponse {
            query: query.clone(),
            outcome,
            report: QueryReport {
                cache_hit: false,
                shards,
                threads_used,
            },
        }
    }

    /// Runs the enumeration for one query against the snapshot artifacts.
    /// Returns `(outcome, shards, threads_used)`, or
    /// [`QueryError::BudgetExceeded`] when a budgeted enumeration would
    /// visit more cliques than its budget allows. Budgeted queries always
    /// take the sequential path, so the visit count the budget meters is the
    /// deterministic enumeration order — the same at any thread grant.
    /// Unbudgeted counts visit nothing (see [`QueryService::count`]).
    fn compute(
        &self,
        query: &Query,
        inner_threads: usize,
    ) -> Result<(QueryOutcome, usize, usize), QueryError> {
        let graph = self.snapshot.graph();
        let index = self.snapshot.index();
        let p = query.p();
        let mut meter = BudgetMeter::new(query.budget());
        let outcome = match query.kind() {
            QueryKind::CountKp if query.budget().is_none() => {
                return self.count(p, inner_threads);
            }
            QueryKind::CountKp => {
                let mut total = 0u64;
                index.for_each_clique_while_with(graph, p, self.snapshot.kernel(), |_| {
                    if !meter.admit() {
                        return false;
                    }
                    total += 1;
                    true
                });
                QueryOutcome::Count(total)
            }
            QueryKind::FirstK { k } => {
                let mut cliques: Vec<Clique> = Vec::with_capacity(k);
                index.for_each_clique_while_with(graph, p, self.snapshot.kernel(), |c| {
                    if !meter.admit() {
                        return false;
                    }
                    cliques.push(c.to_vec());
                    cliques.len() < k
                });
                cliques.sort_unstable();
                QueryOutcome::Cliques(cliques)
            }
            QueryKind::ContainingVertex { vertex } => {
                let mut cliques: Vec<Clique> = Vec::new();
                index.for_each_containing_vertex_while(graph, p, vertex, |c| {
                    if !meter.admit() {
                        return false;
                    }
                    cliques.push(c.to_vec());
                    true
                });
                cliques.sort_unstable();
                QueryOutcome::Cliques(cliques)
            }
            QueryKind::ContainingEdge { u, v } => {
                let mut cliques: Vec<Clique> = Vec::new();
                index.for_each_containing_edge_while(graph, p, u, v, |c| {
                    if !meter.admit() {
                        return false;
                    }
                    cliques.push(c.to_vec());
                    true
                });
                cliques.sort_unstable();
                QueryOutcome::Cliques(cliques)
            }
            QueryKind::Exists => {
                let mut found = false;
                index.for_each_clique_while_with(graph, p, self.snapshot.kernel(), |_| {
                    if !meter.admit() {
                        return false;
                    }
                    found = true;
                    false
                });
                QueryOutcome::Exists(found)
            }
        };
        meter.finish()?;
        Ok((outcome, 1, 1))
    }

    /// Answers an unbudgeted `CountKp` with the count-only kernels: summed
    /// shard by shard over the snapshot's plan under a grant above one
    /// thread, or in one inline call otherwise. The grant, not the host,
    /// picks the per-shard path, so `shards` reads the same on every host;
    /// the merge's fan-out rule picks, and reports, the threads. Returns
    /// `(outcome, shards, threads_used)`, or [`QueryError::CountOverflow`]
    /// when the count does not fit in a `u64`.
    fn count(
        &self,
        p: usize,
        inner_threads: usize,
    ) -> Result<(QueryOutcome, usize, usize), QueryError> {
        let (graph, index, kernel) = (
            self.snapshot.graph(),
            self.snapshot.index(),
            self.snapshot.kernel(),
        );
        let plan = self.snapshot.plan_for(p).expect("checked: p is prepared");
        let shards = plan.num_shards();
        let (total, shards, threads_used) = if inner_threads > 1 && shards > 1 {
            let enumerator =
                graphcore::cliques::ShardedEnumerator::from_plan(graph, index, p, plan.clone())
                    .with_kernel(kernel);
            let mut total = Some(0u64);
            graphcore::ordered_merge::ordered_merge(
                shards,
                inner_threads,
                |shard| enumerator.count_in_shard(shard),
                |count| {
                    total = total.zip(count).and_then(|(t, c)| t.checked_add(c));
                    total.is_some()
                },
            );
            (
                total,
                shards,
                graphcore::ordered_merge::fanout(inner_threads, shards),
            )
        } else {
            (index.count_cliques(graph, p, kernel), 1, 1)
        };
        let total = total.ok_or(QueryError::CountOverflow { p })?;
        Ok((QueryOutcome::Count(total), shards, threads_used))
    }
}

/// Meters the cliques a budgeted enumeration visits. Admitting one more
/// visit than the budget allows trips the meter; [`BudgetMeter::finish`]
/// turns a tripped meter into [`QueryError::BudgetExceeded`]. Unbudgeted
/// queries admit everything for free.
struct BudgetMeter {
    budget: Option<u64>,
    visited: u64,
    exceeded: bool,
}

impl BudgetMeter {
    fn new(budget: Option<u64>) -> BudgetMeter {
        BudgetMeter {
            budget,
            visited: 0,
            exceeded: false,
        }
    }

    /// Whether the enumeration may visit one more clique. Once this returns
    /// `false` the enumeration must stop; the partial result is invalid.
    fn admit(&mut self) -> bool {
        if let Some(budget) = self.budget {
            if self.visited == budget {
                self.exceeded = true;
                return false;
            }
        }
        self.visited += 1;
        true
    }

    fn finish(&self) -> Result<(), QueryError> {
        match (self.exceeded, self.budget) {
            (true, Some(budget)) => Err(QueryError::BudgetExceeded { budget }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryBuilder;
    use graphcore::{cliques, gen};

    fn service(n: usize, prob: f64, seed: u64) -> (QueryService, Arc<GraphSnapshot>) {
        let snapshot = GraphSnapshot::build(gen::erdos_renyi(n, prob, seed)).into_shared();
        (QueryService::new(snapshot.clone()), snapshot)
    }

    #[test]
    fn query_reports_record_actual_fanout_not_the_grant() {
        // A tiny snapshot degenerates to a single shard: however wide the
        // service's grant, the per-query report must record what actually
        // happened (sequential, one shard), and batch members always run
        // their own enumeration sequentially — the batch's parallelism is the
        // fan-out across queries, reported by `threads()`, not per query.
        let snapshot = GraphSnapshot::build(gen::complete_graph(6)).into_shared();
        let service = QueryService::with_parallelism(snapshot.clone(), Parallelism::Threads(8));
        assert_eq!(service.threads(), 8, "the grant itself is remembered");
        let count = QueryBuilder::new().p(4).count().build(&snapshot).unwrap();
        let single = service.execute(&count).unwrap();
        assert!(
            single.report.threads_used < 8,
            "one shard cannot use an 8-thread grant (used {})",
            single.report.threads_used
        );
        service.clear_cache();
        let batch = service
            .execute_batch(&[count.clone(), count.clone(), count])
            .unwrap();
        for response in &batch {
            assert_eq!(response.report.threads_used, 1);
        }
    }

    #[test]
    fn kernel_strategies_answer_queries_identically() {
        // The snapshot's kernel knob must never change an answer — only the
        // wall-clock profile of computing it.
        let graph = gen::erdos_renyi(45, 0.3, 11);
        let reference = GraphSnapshot::build(graph.clone()).into_shared();
        let trie = GraphSnapshot::builder(graph)
            .kernel(cliques::KernelStrategy::Trie)
            .build()
            .unwrap()
            .into_shared();
        assert_eq!(trie.id(), reference.id());
        let ref_service = QueryService::new(reference.clone());
        let trie_service = QueryService::new(trie.clone());
        for p in [3usize, 4] {
            let count_a = QueryBuilder::new().p(p).count().build(&reference).unwrap();
            let count_b = QueryBuilder::new().p(p).count().build(&trie).unwrap();
            assert_eq!(
                ref_service.execute(&count_a).unwrap().outcome,
                trie_service.execute(&count_b).unwrap().outcome,
                "count p={p}"
            );
            let first_a = QueryBuilder::new().p(p).first(7).build(&reference).unwrap();
            let first_b = QueryBuilder::new().p(p).first(7).build(&trie).unwrap();
            assert_eq!(
                ref_service.execute(&first_a).unwrap().outcome,
                trie_service.execute(&first_b).unwrap().outcome,
                "first-k p={p}"
            );
        }
    }

    #[test]
    fn every_query_kind_matches_the_ground_truth() {
        let (service, snapshot) = service(45, 0.3, 11);
        let graph = snapshot.graph();
        for p in [3usize, 4, 5] {
            let truth = cliques::list_cliques(graph, p);
            let count = QueryBuilder::new().p(p).count().build(&snapshot).unwrap();
            assert_eq!(
                service.execute(&count).unwrap().outcome,
                QueryOutcome::Count(truth.len() as u64),
                "count p={p}"
            );
            let exists = QueryBuilder::new().p(p).exists().build(&snapshot).unwrap();
            assert_eq!(
                service.execute(&exists).unwrap().outcome,
                QueryOutcome::Exists(!truth.is_empty()),
                "exists p={p}"
            );
            let k = 5usize;
            let first = QueryBuilder::new().p(p).first(k).build(&snapshot).unwrap();
            let mut expected_first: Vec<Clique> = Vec::new();
            cliques::for_each_clique_while(graph, p, |c| {
                expected_first.push(c.to_vec());
                expected_first.len() < k
            });
            expected_first.sort_unstable();
            assert_eq!(
                service.execute(&first).unwrap().outcome,
                QueryOutcome::Cliques(expected_first),
                "first-k p={p}"
            );
            for vertex in [0u32, 22, 44] {
                let through = QueryBuilder::new()
                    .p(p)
                    .containing_vertex(vertex)
                    .build(&snapshot)
                    .unwrap();
                let expected: Vec<Clique> = truth
                    .iter()
                    .filter(|c| c.contains(&vertex))
                    .cloned()
                    .collect();
                assert_eq!(
                    service.execute(&through).unwrap().outcome,
                    QueryOutcome::Cliques(expected),
                    "vertex {vertex} p={p}"
                );
            }
            for (u, v) in graph.edges().take(10) {
                let through = QueryBuilder::new()
                    .p(p)
                    .containing_edge(u, v)
                    .build(&snapshot)
                    .unwrap();
                assert_eq!(
                    service.execute(&through).unwrap().outcome,
                    QueryOutcome::Cliques(cliques::cliques_containing_edge(graph, p, u, v)),
                    "edge {u}-{v} p={p}"
                );
            }
        }
    }

    #[test]
    fn cache_hits_short_circuit_and_are_observable() {
        let (service, snapshot) = service(40, 0.3, 3);
        let query = QueryBuilder::new().p(4).count().build(&snapshot).unwrap();
        let cold = service.execute(&query).unwrap();
        assert!(!cold.report.cache_hit);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        let warm = service.execute(&query).unwrap();
        assert!(warm.report.cache_hit);
        assert_eq!(warm.outcome, cold.outcome);
        // The deterministic payload is identical cold or warm.
        assert_eq!(warm.to_json(), cold.to_json());
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        service.clear_cache();
        assert_eq!(service.cache_stats(), CacheStats::default());
        // Distinct queries (different seed) never share entries.
        let reseeded = QueryBuilder::new()
            .p(4)
            .seed(9)
            .count()
            .build(&snapshot)
            .unwrap();
        service.execute(&query).unwrap();
        let miss = service.execute(&reseeded).unwrap();
        assert!(!miss.report.cache_hit, "seed change must miss");
        assert_eq!(service.cache_stats().entries, 2);
    }

    #[test]
    fn snapshot_mismatch_is_a_typed_error() {
        let (service, _snapshot) = service(30, 0.3, 1);
        let other = GraphSnapshot::build(gen::erdos_renyi(30, 0.3, 2));
        let foreign = QueryBuilder::new().p(3).count().build(&other).unwrap();
        let err = service.execute(&foreign).unwrap_err();
        assert!(matches!(err, QueryError::SnapshotMismatch { .. }));
        assert!(format!("{err}").contains("snapshot"));
        // Identical graph, different prepared sizes: same id, typed error.
        let twin = GraphSnapshot::builder(gen::erdos_renyi(30, 0.3, 1))
            .prepare_p(6)
            .build()
            .unwrap();
        let unprepared = QueryBuilder::new().p(6).count().build(&twin).unwrap();
        assert_eq!(
            service.execute(&unprepared).unwrap_err(),
            QueryError::UnpreparedCliqueSize {
                p: 6,
                prepared: vec![3, 4, 5],
            }
        );
    }

    #[test]
    fn batches_replay_in_request_order() {
        let (service, snapshot) = service(35, 0.35, 7);
        let graph = snapshot.graph();
        let mut queries = vec![
            QueryBuilder::new().p(3).count().build(&snapshot).unwrap(),
            QueryBuilder::new().p(4).first(3).build(&snapshot).unwrap(),
            QueryBuilder::new().p(3).exists().build(&snapshot).unwrap(),
        ];
        for (u, v) in graph.edges().take(5) {
            queries.push(
                QueryBuilder::new()
                    .p(3)
                    .containing_edge(u, v)
                    .build(&snapshot)
                    .unwrap(),
            );
        }
        let responses = service.execute_batch(&queries).unwrap();
        assert_eq!(responses.len(), queries.len());
        for (query, response) in queries.iter().zip(&responses) {
            assert_eq!(&response.query, query, "responses must be in request order");
            let alone = service.execute(query).unwrap();
            assert_eq!(alone.outcome, response.outcome);
        }
        // A batch containing an invalid query fails up front.
        let other = GraphSnapshot::build(gen::complete_graph(5));
        queries.push(QueryBuilder::new().p(3).count().build(&other).unwrap());
        assert!(service.execute_batch(&queries).is_err());
    }

    #[test]
    fn query_surfaces_return_canonical_sorted_order() {
        let (service, snapshot) = service(40, 0.4, 13);
        for query in [
            QueryBuilder::new().p(3).first(20).build(&snapshot).unwrap(),
            QueryBuilder::new()
                .p(3)
                .containing_vertex(5)
                .build(&snapshot)
                .unwrap(),
        ] {
            let response = service.execute(&query).unwrap();
            let QueryOutcome::Cliques(cliques) = response.outcome else {
                panic!("expected cliques");
            };
            assert!(
                cliques.windows(2).all(|w| w[0] < w[1]),
                "not in canonical sorted order: {cliques:?}"
            );
        }
    }

    #[test]
    fn thread_grants_never_change_payloads() {
        let snapshot = GraphSnapshot::build(gen::erdos_renyi(50, 0.3, 21)).into_shared();
        let mut queries = vec![
            QueryBuilder::new().p(4).count().build(&snapshot).unwrap(),
            QueryBuilder::new().p(3).first(7).build(&snapshot).unwrap(),
        ];
        for (u, v) in snapshot.graph().edges().take(8) {
            queries.push(
                QueryBuilder::new()
                    .p(3)
                    .containing_edge(u, v)
                    .build(&snapshot)
                    .unwrap(),
            );
        }
        let reference: Vec<String> =
            QueryService::with_parallelism(snapshot.clone(), Parallelism::Off)
                .execute_batch(&queries)
                .unwrap()
                .iter()
                .map(QueryResponse::to_json)
                .collect();
        for threads in [1usize, 2, 8] {
            let service =
                QueryService::with_parallelism(snapshot.clone(), Parallelism::Threads(threads));
            let payloads: Vec<String> = service
                .execute_batch(&queries)
                .unwrap()
                .iter()
                .map(QueryResponse::to_json)
                .collect();
            assert_eq!(payloads, reference, "threads={threads}");
            // Warm replay: byte-identical again, all hits.
            let warm: Vec<String> = service
                .execute_batch(&queries)
                .unwrap()
                .iter()
                .map(QueryResponse::to_json)
                .collect();
            assert_eq!(warm, reference, "warm threads={threads}");
        }
    }
}
