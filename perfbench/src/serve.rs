//! The two serving workloads: `serve-read` (a fixed sparse snapshot under a
//! stream of mixed query batches) and `serve-churn` (a dense snapshot under a
//! stream of edge batches, each followed by reads of the derived snapshot).
//!
//! One closed-loop client drives each: the next request is issued only when
//! the previous one has been answered and checked.

use crate::metrics::{
    put, put_median, put_span, setup_sample, Ctx, Metrics, RunOutput, Tick, Timings, SETUP_REPS,
};
use crate::reference::{adjacent, census, is_canonical_clique, Census};
use crate::stats::{median, Outcomes, Rng};
use crate::trace::Tracer;
use distributed_clique_listing::cliquelist::Parallelism;
use distributed_clique_listing::graphcore::cliques::{self, CliqueIndex, ShardPlan};
use distributed_clique_listing::graphcore::orientation::{degeneracy_ordering, OrientedDag};
use distributed_clique_listing::graphcore::{gen, Clique, EdgeBatch, Graph};
use distributed_clique_listing::query::snapshot::DEFAULT_TARGET_SHARDS;
use distributed_clique_listing::query::{
    delta_cliques, CliqueDelta, GraphSnapshot, Query, QueryBuilder, QueryError, QueryKind,
    QueryOutcome, QueryResponse, QueryService,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Generates the `G(n, density)` edge list the workload serves.
fn input_edges(n: usize, density: f64, seed: u64) -> Vec<(u32, u32)> {
    gen::erdos_renyi(n, density, seed).edges().collect()
}

/// Builds the graph and its snapshot from `edges`, returning the snapshot
/// and the seconds it took. A traced run also times, on the same graph, the
/// stages the snapshot build consists of.
fn setup_once(
    n: usize,
    edges: &[(u32, u32)],
    tracer: &mut Tracer,
    request: u64,
) -> Result<(GraphSnapshot, f64), String> {
    let start = Instant::now();
    let snapshot = tracer.span("setup", request, |tr| {
        let graph = tr
            .span("graph.from_edges", request, |_| Graph::from_edges(n, edges))
            .map_err(|e| format!("from_edges: {e}"))?;
        Ok::<_, String>(tr.span("snapshot.build", request, |_| GraphSnapshot::build(graph)))
    })?;
    let secs = start.elapsed().as_secs_f64();
    if tracer.enabled() {
        trace_index_stages(tracer, request, &snapshot);
    }
    Ok((snapshot, secs))
}

/// Sets up [`SETUP_REPS`] times (see [`crate::metrics::SETUP_REPS`]) and
/// returns the last snapshot.
fn setup(
    n: usize,
    edges: &[(u32, u32)],
    tracer: &mut Tracer,
    timings: &mut Timings,
) -> Result<GraphSnapshot, String> {
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let (snapshot, secs) = setup_sample(|| setup_once(n, edges, tracer, rep))?;
        if rep > 0 {
            timings.setup_s.push(secs);
        }
        built = Some(snapshot);
    }
    built.ok_or_else(|| "no set-up repetition ran".to_string())
}

/// Repeats the set-up when `tick` asks for it, timing it into `setup_s`.
fn resetup(
    tick: Tick,
    n: usize,
    edges: &[(u32, u32)],
    tracer: &mut Tracer,
    timings: &mut Timings,
    outcomes: &mut Outcomes,
) {
    if tick.setup_due {
        match setup_sample(|| setup_once(n, edges, tracer, SETUP_REPS + tick.iter)) {
            Ok((_, secs)) => timings.setup_s.push(secs),
            Err(why) => outcomes.fail(1, why),
        }
    }
}

/// Times, one call each, the index stages of `snapshot`'s graph: the whole
/// `CliqueIndex::build`, its degeneracy ordering and DAG, and the shard plans
/// of every prepared size.
fn trace_index_stages(tracer: &mut Tracer, request: u64, snapshot: &GraphSnapshot) {
    let graph = snapshot.graph();
    tracer.span("cliques.index_build", request, |_| {
        black_box(CliqueIndex::build(graph));
    });
    let ordering = tracer.span("orientation.ordering", request, |_| {
        degeneracy_ordering(graph)
    });
    tracer.span("orientation.dag", request, |_| {
        black_box(OrientedDag::from_ordering(graph, &ordering));
    });
    let index = snapshot.index();
    tracer.span("snapshot.plans", request, |_| {
        for p in snapshot.prepared_ps() {
            black_box(ShardPlan::balanced(
                index.dag(),
                index.ordering(),
                p,
                DEFAULT_TARGET_SHARDS,
            ));
        }
    });
}

/// Per-layer metrics of the set-up and index stages.
fn index_stage_metrics(m: &mut Metrics, tracer: &Tracer) {
    put_span(m, "graph.from_edges_ms", tracer, "graph.from_edges");
    put_span(m, "orientation.ordering_ms", tracer, "orientation.ordering");
    put_span(m, "orientation.dag_ms", tracer, "orientation.dag");
    put_span(m, "cliques.index_build_ms", tracer, "cliques.index_build");
    put_span(m, "snapshot.plans_ms", tracer, "snapshot.plans");
    let med = |span: &str| median(&tracer.durations_ms(span));
    if let (Some(index), Some(ordering), Some(dag)) = (
        med("cliques.index_build"),
        med("orientation.ordering"),
        med("orientation.dag"),
    ) {
        put(m, "cliques.bitsets_ms", Some(index - ordering - dag), 1);
    }
    if let (Some(build), Some(index), Some(plans)) = (
        med("snapshot.build"),
        med("cliques.index_build"),
        med("snapshot.plans"),
    ) {
        put_median(
            m,
            "snapshot.build_ms",
            &tracer.durations_ms("snapshot.build"),
        );
        put(m, "snapshot.hash_plans_ms", Some(build - index), 1);
        put(m, "snapshot.timed_cover", Some((index + plans) / build), 1);
    }
}

/// The span a single cold `execute` of `kind` is recorded under.
fn cold_span(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::CountKp => "service.cold.count",
        QueryKind::FirstK { .. } => "service.cold.first_k",
        QueryKind::Exists => "service.cold.exists",
        QueryKind::ContainingVertex { .. } => "service.cold.vertex",
        QueryKind::ContainingEdge { .. } => "service.cold.edge",
    }
}

/// Whether `cliques` is strictly increasing and every member a canonical
/// `p`-clique of `graph` containing all of `must_contain`.
fn valid_listing(graph: &Graph, p: usize, cliques: &[Clique], must_contain: &[u32]) -> bool {
    cliques.windows(2).all(|w| w[0] < w[1])
        && cliques.iter().all(|c| {
            c.len() == p
                && is_canonical_clique(graph, c)
                && must_contain.iter().all(|v| c.binary_search(v).is_ok())
        })
}

/// Checks one response. `count` is the exact number of `p`-cliques of the
/// graph; `census`, when given, holds exact per-vertex and per-edge counts.
fn check_response(
    graph: &Graph,
    count: u64,
    census: Option<&Census>,
    response: &QueryResponse,
) -> Result<(), String> {
    let q = &response.query;
    let p = q.p();
    let ok = match (q.kind(), &response.outcome) {
        (QueryKind::CountKp, QueryOutcome::Count(c)) => *c == count,
        (QueryKind::Exists, QueryOutcome::Exists(e)) => *e == (count > 0),
        (QueryKind::FirstK { k }, QueryOutcome::Cliques(c)) => {
            c.len() as u64 == count.min(k as u64) && valid_listing(graph, p, c, &[])
        }
        (QueryKind::ContainingVertex { vertex }, QueryOutcome::Cliques(c)) => {
            census.is_none_or(|r| c.len() as u64 == r.vertex(p, vertex))
                && valid_listing(graph, p, c, &[vertex])
        }
        (QueryKind::ContainingEdge { u, v }, QueryOutcome::Cliques(c)) => {
            census.is_none_or(|r| c.len() as u64 == r.edge(p, u, v))
                && valid_listing(graph, p, c, &[u, v])
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "wrong answer to {}: {}",
            q.canonical_identity(),
            response.to_json().chars().take(200).collect::<String>()
        ))
    }
}

/// Runs a batch in a span named `span`, then checks every response.
/// Returns the responses when the batch as a whole succeeded, and the
/// seconds `execute_batch` took. `expect(p)` is the exact `p`-clique count.
#[allow(clippy::too_many_arguments)]
fn checked_batch(
    tracer: &mut Tracer,
    span: &'static str,
    request: u64,
    service: &QueryService,
    batch: &[Query],
    census: Option<&Census>,
    expect: impl Fn(usize) -> u64,
    outcomes: &mut Outcomes,
) -> (Option<Vec<QueryResponse>>, f64) {
    let start = Instant::now();
    let result = tracer.span(span, request, |_| service.execute_batch(batch));
    let secs = start.elapsed().as_secs_f64();
    (
        check_batch(service, batch, census, expect, result, outcomes),
        secs,
    )
}

/// Checks a batch's responses (see [`checked_batch`]).
fn check_batch(
    service: &QueryService,
    batch: &[Query],
    census: Option<&Census>,
    expect: impl Fn(usize) -> u64,
    result: Result<Vec<QueryResponse>, QueryError>,
    outcomes: &mut Outcomes,
) -> Option<Vec<QueryResponse>> {
    outcomes.attempt(batch.len() as u64);
    match result {
        Ok(responses) => {
            let graph = service.snapshot().graph();
            if responses.len() != batch.len() {
                outcomes.fail(
                    batch.len() as u64,
                    "batch returned the wrong number of responses",
                );
                return None;
            }
            for r in &responses {
                if let Err(why) = check_response(graph, expect(r.query.p()), census, r) {
                    outcomes.fail(1, why);
                }
            }
            Some(responses)
        }
        Err(e) => {
            outcomes.fail(batch.len() as u64, format!("batch failed: {e}"));
            None
        }
    }
}

/// Executes `batch` as single queries on `service` (cache cleared first),
/// each in a `service.cold.<kind>` span, then again warm in
/// `service.warm` spans; both passes are checked.
#[allow(clippy::too_many_arguments)]
fn trace_singles(
    tracer: &mut Tracer,
    request: u64,
    service: &QueryService,
    batch: &[Query],
    census: Option<&Census>,
    expect: &dyn Fn(usize) -> u64,
    cache: &mut CacheTally,
    outcomes: &mut Outcomes,
) {
    cache.clear(service);
    let graph = service.snapshot().graph();
    for pass in ["cold", "warm"] {
        for q in batch {
            let span = if pass == "cold" {
                cold_span(q.kind())
            } else {
                "service.warm"
            };
            outcomes.attempt(1);
            match tracer.span(span, request, |_| service.execute(q)) {
                Ok(r) => {
                    if let Err(why) = check_response(graph, expect(q.p()), census, &r) {
                        outcomes.fail(1, why);
                    }
                }
                Err(e) => outcomes.fail(1, format!("single query failed: {e}")),
            }
        }
    }
}

/// Calls the kernel directly on `snapshot`'s index for the batch's vertex
/// and edge queries, plus full `p = 3` and `p = 4` counts, checking the
/// counts against `expect`. Returns the cliques visited.
fn trace_kernel(
    tracer: &mut Tracer,
    request: u64,
    snapshot: &GraphSnapshot,
    batch: &[Query],
    expect: &dyn Fn(usize) -> Option<u64>,
    outcomes: &mut Outcomes,
) -> u64 {
    let (graph, index) = (snapshot.graph(), snapshot.index());
    let mut visited = 0u64;
    for (p, span) in [(3, "kernel.count_p3"), (4, "kernel.count_p4")] {
        let mut count = 0u64;
        tracer.span(span, request, |_| {
            index.for_each_clique_while(graph, p, |_| {
                count += 1;
                true
            })
        });
        if let Some(want) = expect(p) {
            outcomes.attempt(1);
            outcomes.check(count == want, || {
                format!("kernel counted {count} K{p}, want {want}")
            });
        }
        visited += count;
    }
    for q in batch {
        let mut count = 0u64;
        let mut visit = |_: &[u32]| {
            count += 1;
            true
        };
        match q.kind() {
            QueryKind::ContainingVertex { vertex } => {
                tracer.span("kernel.vertex", request, |_| {
                    index.for_each_containing_vertex_while(graph, q.p(), vertex, &mut visit)
                });
            }
            QueryKind::ContainingEdge { u, v } => {
                tracer.span("kernel.edge", request, |_| {
                    index.for_each_containing_edge_while(graph, q.p(), u, v, &mut visit)
                });
            }
            _ => {}
        }
        visited += count;
    }
    visited
}

/// Runs the same batch cold on `pinned` and on `off` (a service with
/// [`Parallelism::Off`]), alternating which goes first, and returns the
/// `off / pinned` time ratio of the pair.
fn paired_batch_speedup(
    tracer: &mut Tracer,
    request: u64,
    pinned: &QueryService,
    off: &QueryService,
    batch: &[Query],
    cache: &mut CacheTally,
) -> f64 {
    let mut time = |service: &QueryService, span: &'static str, tr: &mut Tracer| {
        cache.clear(service);
        let start = Instant::now();
        let _ = tr.span(span, request, |_| black_box(service.execute_batch(batch)));
        start.elapsed().as_secs_f64()
    };
    let (t_pinned, t_off) = if request.is_multiple_of(4) {
        let t_off = time(off, "service.batch_off", tracer);
        (time(pinned, "service.batch_pinned", tracer), t_off)
    } else {
        let t_pinned = time(pinned, "service.batch_pinned", tracer);
        (t_pinned, time(off, "service.batch_off", tracer))
    };
    t_off / t_pinned
}

/// Cache probes summed over a run. `QueryService::clear_cache` zeroes the
/// service's counters, so they are banked before every clear.
#[derive(Debug, Default)]
struct CacheTally {
    hits: u64,
    misses: u64,
}

impl CacheTally {
    /// Banks `service`'s counters, then clears its cache.
    fn clear(&mut self, service: &QueryService) {
        self.bank(service);
        service.clear_cache();
    }

    /// Banks `service`'s counters (call once per service, after its last use,
    /// or through [`CacheTally::clear`]).
    fn bank(&mut self, service: &QueryService) {
        let stats = service.cache_stats();
        self.hits += stats.hits;
        self.misses += stats.misses;
    }
}

/// Metrics of the service, cache, kernel and merge layers common to both
/// serving workloads.
fn serving_layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    cache: &CacheTally,
    threads_used: usize,
    speedups: &[f64],
    kernel_cliques: &[f64],
) {
    for (metric, span) in [
        ("service.cold_ms.count", "service.cold.count"),
        ("service.cold_ms.first_k", "service.cold.first_k"),
        ("service.cold_ms.exists", "service.cold.exists"),
        ("service.cold_ms.vertex", "service.cold.vertex"),
        ("service.cold_ms.edge", "service.cold.edge"),
        ("service.warm_ms", "service.warm"),
        ("kernel.count_p3_ms", "kernel.count_p3"),
        ("kernel.count_p4_ms", "kernel.count_p4"),
        ("kernel.vertex_ms", "kernel.vertex"),
        ("kernel.edge_ms", "kernel.edge"),
    ] {
        put_span(m, metric, tracer, span);
    }
    put_median(m, "kernel.cliques", kernel_cliques);
    put_median(m, "merge.batch_speedup_vs_off", speedups);
    put(m, "merge.threads_used", Some(threads_used as f64), 1);
    let probes = cache.hits + cache.misses;
    put(m, "cache.hits", Some(cache.hits as f64), 1);
    put(m, "cache.misses", Some(cache.misses as f64), 1);
    if probes > 0 {
        put(
            m,
            "cache.hit_ratio",
            Some(cache.hits as f64 / probes as f64),
            probes as usize,
        );
    }
}

// ---------------------------------------------------------------------------
// serve-read

/// Draws one mixed read batch: for `p` in {3, 4} a count, an exists and two
/// first-k queries, then 13 containing-vertex and 14 containing-edge queries
/// (35 in all) on random vertices and present edges.
fn read_batch(
    snapshot: &GraphSnapshot,
    edges: &[(u32, u32)],
    rng: &mut Rng,
) -> Result<Vec<Query>, QueryError> {
    let n = snapshot.graph().num_vertices();
    let mut batch = Vec::with_capacity(35);
    for p in [3, 4] {
        batch.push(QueryBuilder::new().p(p).count().build(snapshot)?);
        batch.push(QueryBuilder::new().p(p).exists().build(snapshot)?);
        for _ in 0..2 {
            batch.push(
                QueryBuilder::new()
                    .p(p)
                    .first(1 + rng.below(64))
                    .build(snapshot)?,
            );
        }
    }
    for i in 0..13 {
        let v = rng.below(n) as u32;
        batch.push(
            QueryBuilder::new()
                .p(3 + i % 2)
                .containing_vertex(v)
                .build(snapshot)?,
        );
    }
    for i in 0..14 {
        let (u, v) = edges[rng.below(edges.len())];
        batch.push(
            QueryBuilder::new()
                .p(3 + i % 2)
                .containing_edge(u, v)
                .build(snapshot)?,
        );
    }
    Ok(batch)
}

/// Warm re-issues of each serve-read batch. They are timed as one block, and
/// the block's time per batch is one `op2` sample: a single warm batch takes
/// well under a millisecond, so one thread hand-off would otherwise set it.
const WARM_REISSUES: usize = 8;

/// Leading iterations whose program-decided work is averaged into
/// `work_per_op`. The loop always runs at least this many, so the figure is
/// exact for a seed however fast the host is.
const WORK_ITERS: u64 = 32;

/// Shards the library enumerated for a batch's responses.
fn shards(responses: &[QueryResponse]) -> f64 {
    responses.iter().map(|r| r.report.shards as f64).sum()
}

/// `serve-read`: one snapshot of `G(5000, 0.01)`; each iteration draws a
/// fresh 35-query batch, runs it against a cleared cache (`op`), then
/// re-issues it warm [`WARM_REISSUES`] times (`op2`).
pub fn serve_read(ctx: &Ctx) -> Result<RunOutput, String> {
    let (n, density) = if ctx.toy { (300, 0.05) } else { (5000, 0.01) };
    let edges = input_edges(n, density, ctx.seed);
    let mut tracer = Tracer::new(ctx.trace);
    let mut timings = Timings::default();
    let mut outcomes = Outcomes::default();
    let snapshot = Arc::new(setup(n, &edges, &mut tracer, &mut timings)?);
    let graph = snapshot.graph();

    let reference = census(graph, true);
    for p in [3, 4] {
        outcomes.attempt(1);
        let library = cliques::count_cliques(graph, p) as u64;
        let own = reference.count(p);
        outcomes.check(library == own, || {
            format!("count_cliques K{p} = {library}, reference {own}")
        });
    }
    let expect = |p: usize| reference.count(p);

    let service = QueryService::with_parallelism(snapshot.clone(), ctx.grant());
    let off = QueryService::with_parallelism(snapshot.clone(), Parallelism::Off);
    let mut rng = Rng::new(ctx.seed, 0x5EAD);
    let mut speedups = Vec::new();
    let mut kernel_cliques = Vec::new();
    let mut cache = CacheTally::default();
    ctx.run_loop(WORK_ITERS, |tick| {
        let Tick { iter, traced, .. } = tick;
        tracer.pause(!traced);
        resetup(tick, n, &edges, &mut tracer, &mut timings, &mut outcomes);
        let batch = match read_batch(&snapshot, &edges, &mut rng) {
            Ok(b) => b,
            Err(e) => return outcomes.fail(1, format!("query build failed: {e}")),
        };
        cache.clear(&service);
        let census = Some(&reference);
        let (cold, cold_s) = checked_batch(
            &mut tracer,
            "service.batch_cold",
            iter,
            &service,
            &batch,
            census,
            expect,
            &mut outcomes,
        );
        let start = Instant::now();
        let warm_results: Vec<_> = (0..WARM_REISSUES)
            .map(|_| {
                tracer.span("service.batch_warm", iter, |_| {
                    service.execute_batch(&batch)
                })
            })
            .collect();
        let warm_s = start.elapsed().as_secs_f64();
        for result in warm_results {
            let warm = check_batch(&service, &batch, census, expect, result, &mut outcomes);
            if let (Some(cold), Some(warm)) = (&cold, &warm) {
                let hits = warm.iter().all(|r| r.report.cache_hit);
                let same = cold.iter().zip(warm).all(|(c, w)| c.outcome == w.outcome);
                outcomes.check(hits && same, || {
                    "warm batch missed the cache or changed".into()
                });
            }
        }
        if let Some(cold) = cold.as_deref().filter(|_| iter < WORK_ITERS) {
            timings.work.push(shards(cold));
        }
        if traced {
            timings.op_ms_traced.push(cold_s * 1e3);
            speedups.push(paired_batch_speedup(
                &mut tracer,
                iter,
                &service,
                &off,
                &batch,
                &mut cache,
            ));
            trace_singles(
                &mut tracer,
                iter,
                &service,
                &batch,
                Some(&reference),
                &expect,
                &mut cache,
                &mut outcomes,
            );
            let visited = trace_kernel(
                &mut tracer,
                iter,
                &snapshot,
                &batch,
                &|p| Some(expect(p)),
                &mut outcomes,
            );
            kernel_cliques.push(visited as f64);
        } else {
            timings.op_ms.push(cold_s * 1e3);
            timings.op2_ms.push(warm_s * 1e3 / WARM_REISSUES as f64);
            timings.requests += ((1 + WARM_REISSUES) * batch.len()) as f64;
            timings.request_secs += cold_s + warm_s;
        }
    });

    cache.bank(&service);
    cache.bank(&off);
    let threads_used = service.threads().min(35);
    let metrics = if ctx.trace {
        let mut m = Metrics::new();
        index_stage_metrics(&mut m, &tracer);
        serving_layer_metrics(
            &mut m,
            &tracer,
            &cache,
            threads_used,
            &speedups,
            &kernel_cliques,
        );
        timings.trace_overhead(&mut m);
        m
    } else {
        timings.end_to_end(&outcomes)
    };
    Ok(RunOutput {
        outcomes,
        metrics,
        facts: vec![
            (
                "graph",
                format!("er(n={n}, p={density}) m={}", graph.num_edges()),
            ),
            ("degeneracy", snapshot.index().degeneracy().to_string()),
            ("k3_k4", format!("{} {}", reference.k3, reference.k4)),
            ("service_threads", service.threads().to_string()),
        ],
        tracer,
    })
}

// ---------------------------------------------------------------------------
// serve-churn

/// Edges as `(u, v)` pairs with `u < v`.
type EdgeList = Vec<(u32, u32)>;

/// Draws `changes / 2` distinct present edges to delete and as many absent
/// pairs to insert, so every change in the batch is effective.
fn churn_batch(graph: &Graph, changes: usize, rng: &mut Rng) -> (EdgeList, EdgeList) {
    let n = graph.num_vertices();
    let half = changes / 2;
    let mut deletes = std::collections::BTreeSet::new();
    while deletes.len() < half {
        let u = rng.below(n) as u32;
        let row = graph.neighbors(u);
        if !row.is_empty() {
            let v = row[rng.below(row.len())];
            deletes.insert((u.min(v), u.max(v)));
        }
    }
    let mut inserts = std::collections::BTreeSet::new();
    while inserts.len() < half {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && !adjacent(graph, u, v) {
            inserts.insert((u.min(v), u.max(v)));
        }
    }
    (inserts.into_iter().collect(), deletes.into_iter().collect())
}

/// The read batch issued after each write: a full count, an exists, a
/// first-k, two containing-vertex and two containing-edge queries at
/// `p = 4`, aimed at vertices and edges the write inserted.
fn churn_reads(
    snapshot: &GraphSnapshot,
    inserts: &[(u32, u32)],
    rng: &mut Rng,
) -> Result<Vec<Query>, QueryError> {
    let n = snapshot.graph().num_vertices();
    let (e1, e2) = (
        inserts[rng.below(inserts.len())],
        inserts[rng.below(inserts.len())],
    );
    let q = || QueryBuilder::new().p(4);
    Ok(vec![
        q().count().build(snapshot)?,
        q().exists().build(snapshot)?,
        q().first(1 + rng.below(32)).build(snapshot)?,
        q().containing_vertex(e1.0).build(snapshot)?,
        q().containing_vertex(rng.below(n) as u32).build(snapshot)?,
        q().containing_edge(e1.0, e1.1).build(snapshot)?,
        q().containing_edge(e2.0, e2.1).build(snapshot)?,
    ])
}

/// Checks the reads after a write against the write's delta: every created
/// clique through a queried vertex must be listed, and the cliques through
/// an inserted edge must be exactly the created ones through it.
fn check_reads_against_delta(
    responses: &[QueryResponse],
    delta: &CliqueDelta,
) -> Result<(), String> {
    for r in responses {
        let QueryOutcome::Cliques(listed) = &r.outcome else {
            continue;
        };
        match r.query.kind() {
            QueryKind::ContainingVertex { vertex } => {
                let missing = delta
                    .created
                    .iter()
                    .filter(|c| c.contains(&vertex))
                    .any(|c| listed.binary_search(c).is_err());
                if missing {
                    return Err(format!("vertex {vertex} misses a created clique"));
                }
            }
            QueryKind::ContainingEdge { u, v } => {
                let created: Vec<&Clique> = delta
                    .created
                    .iter()
                    .filter(|c| c.contains(&u) && c.contains(&v))
                    .collect();
                if created.len() != listed.len() || created.iter().zip(listed).any(|(a, b)| *a != b)
                {
                    return Err(format!(
                        "edge ({u},{v}) lists other than its created cliques"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// `serve-churn`: a snapshot of `G(1000, 0.15)`; each iteration applies a
/// 256-change edge batch and lists the `K_4` delta (`op`), then opens a
/// service on the derived snapshot and runs a 7-query read batch (`op2`).
pub fn serve_churn(ctx: &Ctx) -> Result<RunOutput, String> {
    let (n, density, changes) = if ctx.toy {
        (120, 0.2, 16)
    } else {
        (1000, 0.15, 256)
    };
    let edges = input_edges(n, density, ctx.seed);
    let mut tracer = Tracer::new(ctx.trace);
    let mut timings = Timings::default();
    let mut outcomes = Outcomes::default();
    let mut snapshot = Arc::new(setup(n, &edges, &mut tracer, &mut timings)?);

    let initial = census(snapshot.graph(), false);
    let library = cliques::count_cliques(snapshot.graph(), 4) as u64;
    outcomes.attempt(1);
    outcomes.check(library == initial.k4, || {
        format!("count_cliques K4 = {library}, reference {}", initial.k4)
    });
    let mut k4 = initial.k4;
    let facts_graph = format!("er(n={n}, p={density}) m={}", snapshot.graph().num_edges());
    let degeneracy = snapshot.index().degeneracy();

    let mut rng = Rng::new(ctx.seed, 0xC4A2);
    let mut speedups = Vec::new();
    let mut kernel_cliques = Vec::new();
    let (mut created, mut destroyed, mut changed) = (Vec::new(), Vec::new(), Vec::new());
    let mut service_threads = 0;
    let mut cache = CacheTally::default();
    ctx.run_loop(WORK_ITERS, |tick| {
        let Tick { iter, traced, .. } = tick;
        tracer.pause(!traced);
        resetup(tick, n, &edges, &mut tracer, &mut timings, &mut outcomes);
        let (inserts, deletes) = churn_batch(snapshot.graph(), changes, &mut rng);
        let batch = match EdgeBatch::new(&inserts, &deletes) {
            Ok(b) => b,
            Err(e) => return outcomes.fail(1, format!("edge batch rejected: {e}")),
        };
        if traced {
            let applied = tracer.span("churn.apply_edge_batch", iter, |_| {
                snapshot.graph().apply_edge_batch(&batch)
            });
            if let Ok((_, applied)) = applied {
                changed.push(applied.len() as f64);
            }
        }

        outcomes.attempt(1);
        let start = Instant::now();
        let written = tracer.span("write", iter, |tr| {
            let (next, report) = tr
                .span("snapshot.apply_batch", iter, |_| {
                    snapshot.apply_batch(&batch)
                })
                .map_err(|e| format!("apply_batch: {e}"))?;
            let delta = tr
                .span("delta", iter, |_| {
                    delta_cliques(&snapshot, &next, 4, ctx.grant())
                })
                .map_err(|e| format!("delta: {e}"))?;
            Ok::<_, String>((next, report, delta))
        });
        let write_s = start.elapsed().as_secs_f64();
        let (next, report, delta) = match written {
            Ok(w) => w,
            Err(why) => return outcomes.fail(1, why),
        };
        let effective = report.inserted == inserts && report.deleted == deletes;
        outcomes.check(effective, || {
            "apply_batch reported other changes than requested".into()
        });
        let next = Arc::new(next);

        let reads = match churn_reads(&next, &inserts, &mut rng) {
            Ok(r) => r,
            Err(e) => return outcomes.fail(1, format!("query build failed: {e}")),
        };
        let service = QueryService::with_parallelism(next.clone(), ctx.grant());
        service_threads = service.threads();
        let start = Instant::now();
        let responses = tracer.span("service.batch_cold", iter, |_| {
            service.execute_batch(&reads)
        });
        let read_s = start.elapsed().as_secs_f64();
        let after = match &responses {
            Ok(rs) => match rs.first().map(|r| &r.outcome) {
                Some(QueryOutcome::Count(c)) => Some(*c),
                _ => None,
            },
            Err(_) => None,
        };
        // Census identity: K4(after) - K4(before) = created - destroyed.
        let census_ok = after.is_some_and(|after| {
            i128::from(after) - i128::from(k4)
                == delta.created.len() as i128 - delta.destroyed.len() as i128
        });
        outcomes.check(census_ok, || {
            format!(
                "census broken: before {k4}, after {after:?}, created {}, destroyed {}",
                delta.created.len(),
                delta.destroyed.len()
            )
        });
        if let Some(after) = after {
            k4 = after;
        }
        let count = k4;
        if let Some(rs) = check_batch(&service, &reads, None, |_| count, responses, &mut outcomes) {
            if let Err(why) = check_reads_against_delta(&rs, &delta) {
                outcomes.fail(1, why);
            }
            if iter < WORK_ITERS {
                timings.work.push(shards(&rs));
            }
        }

        if traced {
            timings.op_ms_traced.push(write_s * 1e3);
            created.push(delta.created.len() as f64);
            destroyed.push(delta.destroyed.len() as f64);
            trace_index_stages(&mut tracer, iter, &next);
            let warm = tracer.span("service.batch_warm", iter, |_| {
                service.execute_batch(&reads)
            });
            outcomes.attempt(1);
            outcomes.check(
                warm.is_ok_and(|w| w.iter().all(|r| r.report.cache_hit)),
                || "warm read batch missed the cache".into(),
            );
            let off = QueryService::with_parallelism(next.clone(), Parallelism::Off);
            speedups.push(paired_batch_speedup(
                &mut tracer,
                iter,
                &service,
                &off,
                &reads,
                &mut cache,
            ));
            cache.bank(&off);
            let singles = QueryService::with_parallelism(next.clone(), ctx.grant());
            trace_singles(
                &mut tracer,
                iter,
                &singles,
                &reads,
                None,
                &|_| count,
                &mut cache,
                &mut outcomes,
            );
            cache.bank(&singles);
            let visited = trace_kernel(
                &mut tracer,
                iter,
                &next,
                &reads,
                &|p| (p == 4).then_some(count),
                &mut outcomes,
            );
            kernel_cliques.push(visited as f64);
        } else {
            timings.op_ms.push(write_s * 1e3);
            timings.op2_ms.push(read_s * 1e3);
            timings.requests += changes as f64;
            timings.request_secs += write_s;
        }
        cache.bank(&service);
        snapshot = next;
    });

    // The final state must equal a from-scratch build of the final graph.
    outcomes.attempt(1);
    let rebuilt = GraphSnapshot::build(snapshot.graph().clone());
    let exact = cliques::count_cliques(snapshot.graph(), 4) as u64;
    outcomes.check(rebuilt == *snapshot && exact == k4, || {
        format!("final snapshot differs from a fresh build (K4 {exact} vs census {k4})")
    });

    let metrics = if ctx.trace {
        let mut m = Metrics::new();
        index_stage_metrics(&mut m, &tracer);
        put_span(
            &mut m,
            "snapshot.apply_batch_ms",
            &tracer,
            "snapshot.apply_batch",
        );
        put_span(
            &mut m,
            "churn.apply_edge_batch_ms",
            &tracer,
            "churn.apply_edge_batch",
        );
        put_median(&mut m, "churn.edges_changed", &changed);
        put_span(&mut m, "delta.ms", &tracer, "delta");
        put_median(&mut m, "delta.created", &created);
        put_median(&mut m, "delta.destroyed", &destroyed);
        let threads_used = service_threads.min(7);
        serving_layer_metrics(
            &mut m,
            &tracer,
            &cache,
            threads_used,
            &speedups,
            &kernel_cliques,
        );
        timings.trace_overhead(&mut m);
        m
    } else {
        timings.end_to_end(&outcomes)
    };
    Ok(RunOutput {
        outcomes,
        metrics,
        facts: vec![
            ("graph", facts_graph),
            ("degeneracy", degeneracy.to_string()),
            ("batch_changes", changes.to_string()),
            ("service_threads", service_threads.to_string()),
            ("delta_threads", ctx.threads.to_string()),
        ],
        tracer,
    })
}
