//! The committed sweep definitions and the real cell executor.
//!
//! [`perf_sweep`] is the bench-trajectory grid: the enumeration, thread-
//! scaling, cluster-scaling, per-algorithm engine and query-throughput cells
//! that earlier PRs measured ad hoc inside the `experiments` binary,
//! declared here as data so the runner can cache, resume and consolidate
//! them. The grid also grows
//! past the historical `n ≈ 400` ceiling (`er(600, 0.18)`, a 1024-vertex
//! RMAT graph, and a larger engine workload) now that completed cells are
//! cached — an interrupted sweep no longer throws away the big cells.
//!
//! Every parameter that can change a cell's result is in the cell's config
//! object (including the resolved thread grant for engine cells, which
//! depends on `CLIQUELIST_THREADS`), so the store key misses whenever the
//! measurement conditions change.

use crate::json::Json;
use crate::store::CellSpec;
use crate::sweep::{Interrupted, Sweep};
use crate::workloads::listing_workload;
use cliquelist::{CountSink, Engine};
use graphcore::{cliques, gen, EdgeBatch, Graph};
use std::time::Instant;

/// Timing repetitions per cell (matches the pre-harness perf experiment).
pub const REPS: u32 = 3;

/// The standard RMAT quadrant probabilities (Graph500 defaults).
const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);

/// Thread grants exercised by the scaling experiments.
const SCALING_THREADS: &[usize] = &[1, 2, 4, 8];

fn num(value: usize) -> Json {
    Json::Num(value as f64)
}

/// The `perf` sweep: the full bench-trajectory grid.
pub fn perf_sweep() -> Sweep {
    let mut sweep = Sweep::new(
        "perf",
        "Bench trajectory — wall-clock of exact enumeration, thread/cluster scaling, \
         and one engine run per algorithm",
    );
    let base = |kind: &str| vec![("kind", Json::Str(kind.to_string()))];

    // Exact sequential K_p enumeration — the path every algorithm's ground
    // truth and final broadcast run through. The first four cells are the
    // historical grid (BENCH_PR3–5); the last two grow past n ≈ 400.
    let enumeration: &[(&str, &str, usize, f64, usize, u64)] = &[
        // (workload label, generator, n-or-scale, param, p, graph seed)
        ("er(400,0.25)", "er", 400, 0.25, 3, 7),
        ("er(400,0.25)", "er", 400, 0.25, 4, 7),
        ("er(200,0.5)", "er", 200, 0.5, 5, 9),
        ("turan(300,3,0.8)", "turan", 300, 0.8, 4, 3),
        ("er(600,0.18)", "er", 600, 0.18, 4, 11),
        ("rmat(10,16)", "rmat", 10, 16.0, 4, 13),
    ];
    for &(label, generator, n, param, p, graph_seed) in enumeration {
        let mut config = base("enumeration");
        config.extend([
            ("gen", Json::Str(generator.to_string())),
            ("n", num(n)),
            ("param", Json::Num(param)),
            ("p", num(p)),
        ]);
        sweep.cell("enumeration", label, Json::obj(config), graph_seed);
    }

    // Thread-scaling of the sharded parallel enumerator. The er(400) × p4
    // series is the historical one; er(600) is the grown grid (two thread
    // counts keep the cell budget bounded — the speedup curve comes from the
    // er(400) series).
    let thread_scaling: &[(&str, usize, f64, u64, &[usize])] = &[
        ("er(400,0.25)", 400, 0.25, 7, SCALING_THREADS),
        ("er(600,0.18)", 600, 0.18, 11, &[1, 4]),
    ];
    for &(label, n, param, graph_seed, grants) in thread_scaling {
        for &threads in grants {
            let mut config = base("thread-scaling");
            config.extend([
                ("gen", Json::Str("er".to_string())),
                ("n", num(n)),
                ("param", Json::Num(param)),
                ("p", num(4)),
                ("threads", num(threads)),
            ]);
            sweep.cell("thread-scaling", label, Json::obj(config), graph_seed);
        }
    }

    // Cluster-scaling of the CONGEST pipeline: the `general` algorithm fans
    // its per-cluster work out over the ordered-merge orchestrator (PR 5).
    for &threads in SCALING_THREADS {
        let mut config = base("cluster-scaling");
        config.extend([
            ("gen", Json::Str("er".to_string())),
            ("n", num(260)),
            ("param", Json::Num(0.12)),
            ("p", num(4)),
            ("algorithm", Json::Str("general".to_string())),
            ("threads", num(threads)),
        ]);
        sweep.cell(
            "cluster-scaling",
            "er(260,0.12) sparse general",
            Json::obj(config),
            5,
        );
    }

    // One engine run per registered algorithm on the standard listing
    // workload, plus a grown workload for the two headline algorithms. The
    // engine resolves `Parallelism::Auto`, so the resolved grant is part of
    // the cell identity — a different `CLIQUELIST_THREADS` is a different
    // cell, which is exactly what the CI thread matrix wants.
    let auto = cliquelist::config::auto_threads();
    let engine_cells: &[(usize, u64, &[&str])] = &[
        (
            120,
            13,
            &[
                "general",
                "fast-k4",
                "congested-clique",
                "naive-broadcast",
                "eden-k4",
            ],
        ),
        (200, 17, &["general", "fast-k4"]),
    ];
    for &(n, graph_seed, algorithms) in engine_cells {
        for &algorithm in algorithms {
            let mut config = base("engine");
            config.extend([
                ("workload", Json::Str("listing".to_string())),
                ("n", num(n)),
                ("p", num(4)),
                ("algorithm", Json::Str(algorithm.to_string())),
                ("auto_threads", num(auto)),
            ]);
            sweep.cell(
                "engine",
                format!("listing_workload({n})"),
                Json::obj(config),
                graph_seed,
            );
        }
    }
    // A dense graph the decomposition keeps as one cluster with no outside
    // node: both algorithms emit the same million K_4s, so a `fast-k4` run
    // must cost what a `general` run costs.
    for algorithm in ["general", "fast-k4"] {
        let mut config = base("engine");
        config.extend([
            ("gen", Json::Str("er".to_string())),
            ("n", num(200)),
            ("param", Json::Num(0.5)),
            ("p", num(4)),
            ("algorithm", Json::Str(algorithm.to_string())),
            ("auto_threads", num(auto)),
        ]);
        sweep.cell("engine", "er(200,0.5)", Json::obj(config), 17);
    }

    // Query throughput over an immutable snapshot (PR 7): build the snapshot
    // once, then time mixed batches through the `QueryService`, cold and
    // warm. The resolved `Parallelism::Auto` grant is the batch fan-out
    // width, so it is part of the cell identity exactly like engine cells;
    // the batch payloads themselves are byte-identical at any grant and are
    // gated exactly (the `responses` metric).
    let query_cells: &[(&str, &str, usize, f64, u64)] = &[
        ("er(300,0.2)", "er", 300, 0.2, 19),
        ("turan(240,3,0.7)", "turan", 240, 0.7, 23),
    ];
    for &(label, generator, n, param, graph_seed) in query_cells {
        let mut config = base("query-throughput");
        config.extend([
            ("gen", Json::Str(generator.to_string())),
            ("n", num(n)),
            ("param", Json::Num(param)),
            ("p", num(4)),
            ("auto_threads", num(auto)),
        ]);
        sweep.cell("query-throughput", label, Json::obj(config), graph_seed);
    }

    // Fault sweep (PR 8): the message-level naive-broadcast testbed under
    // seeded loss, masked by the reliable ack/retransmit transport. The drop
    // probability is carried in parts-per-million so the config stays
    // integral; the retransmit overhead cells (`retransmits`,
    // `simulated_rounds`) are deterministic in `(graph, p, plan)` and gated
    // byte-exactly, pinning the fault replay contract in the trajectory.
    for &drop_ppm in &[0usize, 10_000, 50_000] {
        let mut config = base("fault-sweep");
        config.extend([
            ("gen", Json::Str("er".to_string())),
            ("n", num(20)),
            ("param", Json::Num(0.4)),
            ("p", num(3)),
            ("drop_ppm", num(drop_ppm)),
            ("fault_seed", num(0xFA17)),
            ("max_rounds", num(10_000)),
        ]);
        sweep.cell(
            "fault-sweep",
            "er(20,0.4) reliable naive",
            Json::obj(config),
            29,
        );
    }

    // Kernel sweep (PR 10): the recursive kernel against the induced-
    // subgraph trie kernel (and, as `"auto"`, the kernel the index picks)
    // on both sides of the selection rule, which reads the density of the
    // roots' candidate sets. Dense side (the index picks the trie):
    // `turan(450,3)` at p = 4 is the criterion cell — the extremal K4-free
    // graph, pure intersection work with zero emissions, where the trie's
    // pivot shortcut dominates; `er(400,0.25)` (candidate density 0.28) is
    // its random counterpart; `er(1000,0.15)` (0.16) is serve-churn's graph,
    // whose p = 4 count runs inline in that workload's cold read batch; and
    // `rmat(12,16)` (0.63) is the skewed-degree shape. Sparse side (the
    // recursive kernel): `er(5000,0.01)` is serve-read's graph, degeneracy
    // 38 but candidate density 0.012. The p = 3 cells time the level where
    // the trie's materialisation weighs most. Every cell times the visiting
    // search (`best_ms`) and the count-only search (`count_only_best_ms`).
    // The clique count and the resolved kernel are deterministic and gated
    // byte-exactly; consolidation derives `speedup_vs_recursive` per
    // workload and p from the timing cells.
    let kernel_cells: &[(&str, &str, usize, f64, usize, u64)] = &[
        ("turan(450,3)", "turan", 450, 1.0, 4, 7),
        ("er(400,0.25)", "er", 400, 0.25, 4, 7),
        ("er(1000,0.15)", "er", 1000, 0.15, 3, 3),
        ("er(1000,0.15)", "er", 1000, 0.15, 4, 3),
        ("er(400,0.25)", "er", 400, 0.25, 3, 7),
        ("er(5000,0.01)", "er", 5000, 0.01, 3, 3),
        ("er(5000,0.01)", "er", 5000, 0.01, 4, 3),
        ("rmat(12,16)", "rmat", 12, 16.0, 4, 1),
    ];
    for &(label, generator, n, param, p, graph_seed) in kernel_cells {
        for kernel in ["recursive", "trie", "auto"] {
            let mut config = base("kernel-sweep");
            config.extend([
                ("gen", Json::Str(generator.to_string())),
                ("n", num(n)),
                ("param", Json::Num(param)),
                ("p", num(p)),
                ("kernel", Json::Str(kernel.to_string())),
            ]);
            sweep.cell("kernel-sweep", label, Json::obj(config), graph_seed);
        }
    }

    // Scaling sweep (PR 10): pinned-thread wall-clock of the sharded
    // enumerator under each explicit kernel on the dense criterion workload.
    // Unlike `thread-scaling` (which exercises the default kernel path),
    // these cells pin both axes, so consolidation can derive
    // `speedup_vs_1_thread` per kernel — the multi-core scaling evidence —
    // and each derived cell records whether it came from a 1-core or a
    // multi-core host.
    for kernel in ["recursive", "trie"] {
        for &threads in SCALING_THREADS {
            let mut config = base("scaling-sweep");
            config.extend([
                ("gen", Json::Str("turan".to_string())),
                ("n", num(450)),
                ("param", Json::Num(1.0)),
                ("p", num(4)),
                ("kernel", Json::Str(kernel.to_string())),
                ("threads", num(threads)),
            ]);
            sweep.cell("scaling-sweep", "turan(450,3)", Json::obj(config), 7);
        }
    }

    // Churn sweep (PR 9): snapshot derivation through `apply_batch` next to
    // a cold build of the derived graph, over growing batch sizes on the
    // cluster-scaling workload. The applied-change counts and delta-listing
    // sizes are deterministic in `(graph, batch_target)` and gated
    // byte-exactly.
    for &batch_target in &[32usize, 256, 4096] {
        let mut config = base("churn-sweep");
        config.extend([
            ("gen", Json::Str("er".to_string())),
            ("n", num(260)),
            ("param", Json::Num(0.12)),
            ("p", num(3)),
            ("batch_target", num(batch_target)),
        ]);
        sweep.cell("churn-sweep", "er(260,0.12) churn", Json::obj(config), 5);
    }
    sweep
}

/// A tiny sweep for CLI-level tests and quick local smoke runs: two
/// enumeration cells and one engine cell on 40-vertex graphs, cheap even in
/// debug builds (`experiments -- perf --sweep smoke`). Same executor, same
/// store, same consolidation path as [`perf_sweep`].
pub fn smoke_sweep() -> Sweep {
    let mut sweep = Sweep::new("smoke", "Smoke sweep — tiny cells exercising the harness");
    for p in [3usize, 4] {
        sweep.cell(
            "enumeration",
            "er(40,0.3)",
            Json::obj(vec![
                ("kind", Json::Str("enumeration".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(40)),
                ("param", Json::Num(0.3)),
                ("p", num(p)),
            ]),
            3,
        );
    }
    sweep.cell(
        "engine",
        "listing_workload(40)",
        Json::obj(vec![
            ("kind", Json::Str("engine".into())),
            ("workload", Json::Str("listing".into())),
            ("n", num(40)),
            ("p", num(4)),
            ("algorithm", Json::Str("general".into())),
        ]),
        5,
    );
    sweep
}

/// Times `body` `reps` times; returns `(best, mean)` in milliseconds.
fn time_reps(reps: u32, mut body: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        body();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
    }
    (best, total / f64::from(reps))
}

fn build_graph(config: &Json, seed: u64) -> Graph {
    let n = config.get("n").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let param = config.get("param").and_then(Json::as_f64).unwrap_or(0.0);
    match config.get("gen").and_then(Json::as_str) {
        Some("er") => gen::erdos_renyi(n, param, seed),
        Some("turan") => gen::multipartite(n, 3, param, seed),
        Some("rmat") => gen::rmat(n as u32, param as usize, RMAT_PROBS, seed),
        other => panic!("unknown generator in cell config: {other:?}"),
    }
}

fn usize_field(config: &Json, key: &str) -> usize {
    config.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize
}

/// The kernel a `kernel-sweep`/`scaling-sweep` cell forces through the
/// bench hook ([`cliques::ShardedEnumerator::with_kernel`]): `"recursive"` or
/// `"trie"`. `"auto"`, or no key (`thread-scaling` cells), forces none: the
/// cell runs the kernel its index picks.
fn forced_kernel(config: &Json) -> Option<cliques::KernelChoice> {
    match config.get("kernel").and_then(Json::as_str) {
        Some("recursive") => Some(cliques::KernelChoice::Recursive),
        Some("trie") => Some(cliques::KernelChoice::Trie),
        Some("auto") | None => None,
        Some(other) => panic!("unknown kernel in cell config: {other:?}"),
    }
}

/// `enumerator` on the `forced` kernel, if any.
fn on_kernel(
    enumerator: cliques::ShardedEnumerator<'_>,
    forced: Option<cliques::KernelChoice>,
) -> cliques::ShardedEnumerator<'_> {
    match forced {
        Some(kernel) => enumerator.with_kernel(kernel),
        None => enumerator,
    }
}

/// Counts `p`-cliques with `threads` workers stealing shards of one
/// [`cliques::ShardedEnumerator`] on the `forced` kernel (the index's own
/// when `None`) — the `thread-scaling` and `scaling-sweep` measurement, so
/// each cell times exactly one (kernel, thread-grant) point.
fn count_cliques_pinned(
    graph: &Graph,
    p: usize,
    forced: Option<cliques::KernelChoice>,
    threads: usize,
) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let enumerator = on_kernel(
        cliques::ShardedEnumerator::new(
            graph,
            p,
            threads.saturating_mul(cliques::SHARDS_PER_THREAD),
        ),
        forced,
    );
    let shards = enumerator.num_shards();
    let next = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(shards).max(1) {
            let (enumerator, next, total) = (&enumerator, &next, &total);
            scope.spawn(move || loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= shards {
                    break;
                }
                let mut count = 0usize;
                enumerator.for_each_in_shard(shard, |_| count += 1);
                total.fetch_add(count, Ordering::Relaxed);
            });
        }
    });
    total.into_inner()
}

/// The deterministic mixed batch of a `query-throughput` cell: census
/// counts for every default-prepared clique size, a bounded prefix, spread
/// per-vertex membership probes, per-edge probes over the first CSR edges,
/// and an existence check. Depends only on the snapshot's graph.
fn query_batch(snapshot: &query::GraphSnapshot) -> Vec<query::Query> {
    use query::QueryBuilder;
    let graph = snapshot.graph();
    let n = graph.num_vertices() as u32;
    let mut batch = vec![
        QueryBuilder::new()
            .p(3)
            .count()
            .build(snapshot)
            .expect("valid"),
        QueryBuilder::new()
            .p(4)
            .count()
            .build(snapshot)
            .expect("valid"),
        QueryBuilder::new()
            .p(5)
            .count()
            .build(snapshot)
            .expect("valid"),
        QueryBuilder::new()
            .p(4)
            .first(10)
            .build(snapshot)
            .expect("valid"),
        QueryBuilder::new()
            .p(5)
            .exists()
            .build(snapshot)
            .expect("valid"),
    ];
    for vertex in [0, n / 3, 2 * n / 3, n - 1] {
        batch.push(
            QueryBuilder::new()
                .p(3)
                .containing_vertex(vertex)
                .build(snapshot)
                .expect("valid"),
        );
    }
    for (u, v) in graph.edges().take(8) {
        batch.push(
            QueryBuilder::new()
                .p(4)
                .containing_edge(u, v)
                .build(snapshot)
                .expect("valid"),
        );
    }
    batch
}

/// The deterministic edge batch of a `churn-sweep` cell: half the target as
/// deletions spread evenly over the CSR edge stream, half as insertions
/// drawn from a dense perturbation generator's non-edges. Disjoint by
/// construction (deletes are edges, inserts are non-edges), so
/// [`EdgeBatch::new`] cannot reject it. Depends only on `(graph, target,
/// seed)`.
fn churn_batch(graph: &Graph, target: usize, seed: u64) -> EdgeBatch {
    let half = (target / 2).max(1);
    let step = (graph.num_edges() / half).max(1);
    let deletes: Vec<(u32, u32)> = graph.edges().step_by(step).take(half).collect();
    let inserts: Vec<(u32, u32)> = gen::erdos_renyi(graph.num_vertices(), 0.5, seed ^ 0xC0FFEE)
        .edges()
        .filter(|&(u, v)| !graph.has_edge(u, v))
        .take(half)
        .collect();
    EdgeBatch::new(&inserts, &deletes).expect("disjoint by construction")
}

/// Executes one real cell of [`perf_sweep`] and returns its metrics object.
///
/// Deterministic metrics (`cliques`, the embedded engine report) depend only
/// on the cell config; timing metrics (`best_ms`, `mean_ms`) are
/// host-dependent and gated leniently by `trajectory::check`. Never actually
/// interrupts — the `Result` exists so tests can substitute executors that
/// do.
///
/// # Panics
///
/// Panics on a malformed cell config (unknown kind/generator) and when a
/// parallel count diverges from the sequential ground truth — both are
/// programming errors in the sweep definition, not runtime conditions.
pub fn execute_perf_cell(spec: &CellSpec) -> Result<Json, Interrupted> {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kind = spec
        .config
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let p = usize_field(&spec.config, "p");
    let mut metrics: Vec<(String, Json)> =
        vec![("available_parallelism".to_string(), num(host_threads))];
    match kind.as_str() {
        "enumeration" => {
            let graph = build_graph(&spec.config, spec.seed);
            let mut count = 0usize;
            let (best, mean) = time_reps(REPS, || count = cliques::count_cliques(&graph, p));
            metrics.extend([
                ("cliques".to_string(), num(count)),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
            ]);
        }
        "kernel-sweep" => {
            let graph = build_graph(&spec.config, spec.seed);
            let index = cliques::CliqueIndex::build(&graph);
            // The kernel that runs: the forced one, after the node-budget
            // fallback, or the index's own.
            let kernel = on_kernel(
                cliques::ShardedEnumerator::with_index(&graph, &index, p, 1),
                forced_kernel(&spec.config),
            )
            .kernel();
            let truth = cliques::count_cliques(&graph, p);
            let mut count = 0usize;
            let (best, mean) = time_reps(REPS, || {
                count = 0;
                index.for_each_clique_while_forced(&graph, p, kernel, |_| {
                    count += 1;
                    true
                });
            });
            assert_eq!(count, truth, "kernel diverged from the ground truth");
            let mut counted = None;
            let (count_only_best, _) = time_reps(REPS, || {
                counted = index.count_cliques_forced(&graph, p, kernel);
            });
            assert_eq!(counted, Some(truth as u64), "count-only search diverged");
            metrics.extend([
                ("cliques".to_string(), num(count)),
                ("resolved_kernel".to_string(), Json::Str(kernel.to_string())),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
                ("count_only_best_ms".to_string(), Json::Num(count_only_best)),
            ]);
        }
        "thread-scaling" | "scaling-sweep" => {
            let graph = build_graph(&spec.config, spec.seed);
            let threads = usize_field(&spec.config, "threads");
            let forced = forced_kernel(&spec.config);
            let truth = cliques::count_cliques(&graph, p);
            let resolved = on_kernel(cliques::ShardedEnumerator::new(&graph, p, 1), forced)
                .kernel()
                .to_string();
            let mut count = 0usize;
            let (best, mean) = time_reps(REPS, || {
                count = count_cliques_pinned(&graph, p, forced, threads);
            });
            assert_eq!(count, truth, "pinned parallel count diverged");
            metrics.extend([
                ("cliques".to_string(), num(count)),
                ("threads".to_string(), num(threads)),
                ("resolved_kernel".to_string(), Json::Str(resolved)),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
            ]);
        }
        "cluster-scaling" | "engine" => {
            let graph = if spec.config.get("workload").and_then(Json::as_str) == Some("listing") {
                listing_workload(usize_field(&spec.config, "n"), p, spec.seed).graph
            } else {
                build_graph(&spec.config, spec.seed)
            };
            let algorithm = spec
                .config
                .get("algorithm")
                .and_then(Json::as_str)
                .unwrap_or("general")
                .to_string();
            let mut builder = Engine::builder()
                .p(p)
                .algorithm(&algorithm)
                .experiment_scale()
                .seed(spec.seed);
            if kind == "cluster-scaling" {
                builder = builder.parallelism(cliquelist::Parallelism::Threads(usize_field(
                    &spec.config,
                    "threads",
                )));
            }
            let engine = builder.build().expect("cell engine config is valid");
            let mut count = 0u64;
            let mut report = None;
            let (best, mean) = time_reps(REPS, || {
                let mut sink = CountSink::new();
                report = Some(engine.run(&graph, &mut sink));
                count = sink.count;
            });
            let report = report.expect("at least one rep ran");
            let report_json =
                Json::parse(&report.to_json()).expect("RunReport::to_json is valid JSON");
            metrics.extend([
                ("cliques".to_string(), Json::Num(count as f64)),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
                (
                    "threads_granted".to_string(),
                    num(report.parallelism.threads_granted),
                ),
                (
                    "threads_used".to_string(),
                    num(report.parallelism.threads_used),
                ),
                ("report".to_string(), report_json),
            ]);
        }
        "query-throughput" => {
            let graph = build_graph(&spec.config, spec.seed);
            let snapshot = query::GraphSnapshot::build(graph).into_shared();
            let batch = query_batch(&snapshot);
            let service = query::QueryService::new(snapshot.clone());
            let mut responses = Vec::new();
            // Cold: every rep recomputes from the snapshot artifacts.
            let (best, mean) = time_reps(REPS, || {
                service.clear_cache();
                responses = service.execute_batch(&batch).expect("pre-validated batch");
            });
            // Warm: the cache short-circuits every enumeration.
            let (warm_best, _) = time_reps(REPS, || {
                responses = service.execute_batch(&batch).expect("pre-validated batch");
            });
            assert!(
                responses.iter().all(|r| r.report.cache_hit),
                "warm batch must be served from cache"
            );
            // The deterministic payloads (request order) and the summed
            // census counts — both gated exactly by `trajectory::check`.
            let payloads: Vec<Json> = responses
                .iter()
                .map(|r| Json::parse(&r.to_json()).expect("response payload is valid JSON"))
                .collect();
            let cliques: f64 = responses
                .iter()
                .filter_map(|r| match r.outcome {
                    query::QueryOutcome::Count(count) => Some(count as f64),
                    _ => None,
                })
                .sum();
            metrics.extend([
                ("queries".to_string(), num(batch.len())),
                ("cliques".to_string(), Json::Num(cliques)),
                ("responses".to_string(), Json::Arr(payloads)),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
                ("warm_best_ms".to_string(), Json::Num(warm_best)),
                ("batch_fanout".to_string(), num(service.threads())),
            ]);
        }
        "fault-sweep" => {
            let graph = build_graph(&spec.config, spec.seed);
            let drop_ppm = usize_field(&spec.config, "drop_ppm");
            let fault_seed = usize_field(&spec.config, "fault_seed") as u64;
            let max_rounds = usize_field(&spec.config, "max_rounds") as u64;
            let plan = if drop_ppm == 0 {
                congest::FaultPlan::fault_free()
            } else {
                congest::FaultPlan::builder(fault_seed)
                    .drop_probability(drop_ppm as f64 / 1e6)
                    .build()
                    .expect("sweep fault plan is valid")
            };
            let mut sim = None;
            let (best, mean) = time_reps(REPS, || {
                sim = Some(cliquelist::baselines::simulate_naive_broadcast_with_faults(
                    &graph,
                    p,
                    max_rounds,
                    plan.clone(),
                ));
            });
            let sim = sim.expect("at least one rep ran");
            // The headline robustness claim, checked at measurement time:
            // the transport masks the seeded loss completely.
            assert_eq!(
                sim.result.cliques.len(),
                cliques::count_cliques(&graph, p),
                "reliable transport must mask the seeded loss"
            );
            metrics.extend([
                ("cliques".to_string(), num(sim.result.cliques.len())),
                (
                    "simulated_rounds".to_string(),
                    Json::Num(sim.report.simulated_rounds as f64),
                ),
                (
                    "retransmits".to_string(),
                    Json::Num(sim.transport.retransmits as f64),
                ),
                (
                    "acks_sent".to_string(),
                    Json::Num(sim.transport.acks_sent as f64),
                ),
                (
                    "dropped_messages".to_string(),
                    Json::Num(sim.dropped_messages as f64),
                ),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
            ]);
        }
        "churn-sweep" => {
            let graph = build_graph(&spec.config, spec.seed);
            let batch_target = usize_field(&spec.config, "batch_target");
            let old = query::GraphSnapshot::build(graph);
            let batch = churn_batch(old.graph(), batch_target, spec.seed);
            // The measured quantity: deriving a snapshot through
            // `apply_batch` …
            let mut result = None;
            let (best, mean) = time_reps(REPS, || {
                result = Some(old.apply_batch(&batch).expect("batch is in range"));
            });
            let (derived, applied) = result.expect("at least one rep ran");
            // … against the cold build it must equal byte for byte — the
            // churn battery's contract (a), re-asserted at measurement time.
            let mut scratch = None;
            let (rebuild_best, rebuild_mean) = time_reps(REPS, || {
                scratch = Some(query::GraphSnapshot::build(derived.graph().clone()));
            });
            assert_eq!(
                derived,
                scratch.expect("at least one rep ran"),
                "a derived snapshot must equal a cold build"
            );
            // The delta listing accounts for the census change exactly.
            let delta = query::delta_cliques(&old, &derived, p, cliquelist::Parallelism::Auto)
                .expect("same vertex count");
            let before = cliques::count_cliques(old.graph(), p);
            let after = cliques::count_cliques(derived.graph(), p);
            assert_eq!(
                after as i64 - before as i64,
                delta.created.len() as i64 - delta.destroyed.len() as i64,
                "delta must account for the census change exactly"
            );
            metrics.extend([
                ("inserted".to_string(), num(applied.inserted.len())),
                ("deleted".to_string(), num(applied.deleted.len())),
                ("cliques".to_string(), num(after)),
                ("created_cliques".to_string(), num(delta.created.len())),
                ("destroyed_cliques".to_string(), num(delta.destroyed.len())),
                ("best_ms".to_string(), Json::Num(best)),
                ("mean_ms".to_string(), Json::Num(mean)),
                ("rebuild_best_ms".to_string(), Json::Num(rebuild_best)),
                ("rebuild_mean_ms".to_string(), Json::Num(rebuild_mean)),
            ]);
        }
        other => panic!("unknown cell kind in perf sweep: {other:?}"),
    }
    Ok(Json::Obj(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_sweep_covers_the_documented_experiments() {
        let sweep = perf_sweep();
        let experiments: std::collections::BTreeSet<&str> =
            sweep.cells.iter().map(|c| c.experiment.as_str()).collect();
        assert_eq!(
            experiments.into_iter().collect::<Vec<_>>(),
            vec![
                "churn-sweep",
                "cluster-scaling",
                "engine",
                "enumeration",
                "fault-sweep",
                "kernel-sweep",
                "query-throughput",
                "scaling-sweep",
                "thread-scaling"
            ]
        );
        // The kernel sweep covers all three strategies on the dense
        // criterion workload, its random counterpart, serve-churn's graph,
        // an R-MAT graph and serve-read's sparse graph.
        assert_eq!(
            sweep
                .cells
                .iter()
                .filter(|c| c.experiment == "kernel-sweep")
                .count(),
            24
        );
        for workload in ["turan(450,3)", "rmat(12,16)", "er(5000,0.01)"] {
            assert!(sweep
                .cells
                .iter()
                .any(|c| c.experiment == "kernel-sweep" && c.workload == workload));
        }
        // The scaling sweep pins both axes: each explicit kernel runs the
        // full thread grid, so the per-kernel speedup curves are derivable.
        for kernel in ["recursive", "trie"] {
            for &threads in SCALING_THREADS {
                assert!(
                    sweep.cells.iter().any(|c| {
                        c.experiment == "scaling-sweep"
                            && c.config.get("kernel").and_then(Json::as_str) == Some(kernel)
                            && c.config.get("threads").and_then(Json::as_f64)
                                == Some(threads as f64)
                    }),
                    "missing scaling-sweep cell: kernel={kernel}, threads={threads}"
                );
            }
        }
        // The fault sweep covers a fault-free control and two loss rates.
        assert_eq!(
            sweep
                .cells
                .iter()
                .filter(|c| c.experiment == "fault-sweep")
                .count(),
            3
        );
        // The churn sweep covers three batch sizes.
        assert_eq!(
            sweep
                .cells
                .iter()
                .filter(|c| c.experiment == "churn-sweep")
                .count(),
            3
        );
        // The grid grew past the historical n ≈ 400 ceiling.
        assert!(sweep
            .cells
            .iter()
            .any(|c| c.workload == "er(600,0.18)" && c.experiment == "enumeration"));
        assert!(sweep.cells.iter().any(|c| c.workload == "rmat(10,16)"));
        assert!(sweep
            .cells
            .iter()
            .any(|c| c.experiment == "engine" && c.workload == "listing_workload(200)"));
    }

    #[test]
    fn executor_runs_a_small_engine_cell() {
        let spec = CellSpec {
            experiment: "engine".into(),
            workload: "listing_workload(60)".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("engine".into())),
                ("workload", Json::Str("listing".into())),
                ("n", num(60)),
                ("p", num(4)),
                ("algorithm", Json::Str("general".into())),
            ]),
            seed: 13,
        };
        let metrics = execute_perf_cell(&spec).expect("executor never interrupts");
        assert!(metrics.get("cliques").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(metrics.get("best_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(metrics.get("threads_used").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(metrics.get("report").is_some());
    }

    #[test]
    fn executor_runs_a_query_throughput_cell_deterministically() {
        let spec = CellSpec {
            experiment: "query-throughput".into(),
            workload: "er(50,0.3)".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("query-throughput".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(50)),
                ("param", Json::Num(0.3)),
                ("p", num(4)),
            ]),
            seed: 19,
        };
        let metrics = execute_perf_cell(&spec).expect("executor never interrupts");
        let responses = metrics.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(
            responses.len(),
            metrics.get("queries").and_then(Json::as_f64).unwrap() as usize
        );
        // The census sum matches the exact enumeration.
        let graph = gen::erdos_renyi(50, 0.3, 19);
        let expected: usize = (3..=5).map(|p| cliques::count_cliques(&graph, p)).sum();
        assert_eq!(
            metrics.get("cliques").and_then(Json::as_f64).unwrap() as usize,
            expected
        );
        // The deterministic payloads reproduce byte for byte across runs.
        let again = execute_perf_cell(&spec).expect("executor never interrupts");
        assert_eq!(
            metrics.get("responses").unwrap().canonical(),
            again.get("responses").unwrap().canonical()
        );
        assert!(metrics.get("warm_best_ms").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn executor_runs_fault_cells_deterministically() {
        let cell = |drop_ppm: usize| CellSpec {
            experiment: "fault-sweep".into(),
            workload: "er(20,0.4) reliable naive".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("fault-sweep".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(20)),
                ("param", Json::Num(0.4)),
                ("p", num(3)),
                ("drop_ppm", num(drop_ppm)),
                ("fault_seed", num(0xFA17)),
                ("max_rounds", num(10_000)),
            ]),
            seed: 29,
        };
        // Fault-free control: nothing dropped, nothing retransmitted, and
        // the listing matches the exact enumeration.
        let clean = execute_perf_cell(&cell(0)).expect("executor never interrupts");
        let truth = cliques::count_cliques(&gen::erdos_renyi(20, 0.4, 29), 3);
        assert_eq!(
            clean.get("cliques").and_then(Json::as_f64).unwrap() as usize,
            truth
        );
        assert_eq!(
            clean.get("retransmits").and_then(Json::as_f64).unwrap(),
            0.0
        );
        assert_eq!(
            clean
                .get("dropped_messages")
                .and_then(Json::as_f64)
                .unwrap(),
            0.0
        );
        // Lossy: the transport masks the loss (same cliques), pays for it in
        // retransmissions, and replays byte-identically.
        let lossy = execute_perf_cell(&cell(50_000)).expect("executor never interrupts");
        assert_eq!(
            lossy.get("cliques").and_then(Json::as_f64).unwrap() as usize,
            truth
        );
        assert!(
            lossy
                .get("dropped_messages")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let again = execute_perf_cell(&cell(50_000)).expect("executor never interrupts");
        for metric in ["cliques", "simulated_rounds", "retransmits", "acks_sent"] {
            assert_eq!(
                lossy.get(metric).unwrap().canonical(),
                again.get(metric).unwrap().canonical(),
                "{metric} must replay identically"
            );
        }
    }

    #[test]
    fn executor_runs_churn_cells_deterministically() {
        let cell = |batch_target: usize| CellSpec {
            experiment: "churn-sweep".into(),
            workload: "er(60,0.2) churn".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("churn-sweep".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(60)),
                ("param", Json::Num(0.2)),
                ("p", num(3)),
                ("batch_target", num(batch_target)),
            ]),
            seed: 7,
        };
        // A small batch applies every requested change; a batch larger than
        // the edge count deletes every edge. The executor itself asserts
        // derived == cold build either way.
        let small = execute_perf_cell(&cell(8)).expect("executor never interrupts");
        assert_eq!(small.get("inserted").and_then(Json::as_f64), Some(4.0));
        assert_eq!(small.get("deleted").and_then(Json::as_f64), Some(4.0));
        let large = execute_perf_cell(&cell(1024)).expect("executor never interrupts");
        let m = gen::erdos_renyi(60, 0.2, 7).num_edges();
        assert_eq!(large.get("deleted").and_then(Json::as_f64), Some(m as f64));
        // The deterministic metrics replay byte for byte.
        let again = execute_perf_cell(&cell(8)).expect("executor never interrupts");
        for metric in [
            "inserted",
            "deleted",
            "cliques",
            "created_cliques",
            "destroyed_cliques",
        ] {
            assert_eq!(
                small.get(metric).unwrap().canonical(),
                again.get(metric).unwrap().canonical(),
                "{metric} must replay identically"
            );
        }
        assert!(small.get("best_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(small.get("rebuild_best_ms").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn executor_runs_kernel_cells_deterministically() {
        let cell = |kernel: &str| CellSpec {
            experiment: "kernel-sweep".into(),
            workload: "er(40,0.3)".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("kernel-sweep".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(40)),
                ("param", Json::Num(0.3)),
                ("p", num(4)),
                ("kernel", Json::Str(kernel.into())),
            ]),
            seed: 3,
        };
        let truth = cliques::count_cliques(&gen::erdos_renyi(40, 0.3, 3), 4);
        for kernel in ["recursive", "trie", "auto"] {
            let metrics = execute_perf_cell(&cell(kernel)).expect("executor never interrupts");
            assert_eq!(
                metrics.get("cliques").and_then(Json::as_f64).unwrap() as usize,
                truth,
                "{kernel}: count diverged"
            );
            assert!(
                metrics
                    .get("count_only_best_ms")
                    .and_then(Json::as_f64)
                    .unwrap()
                    >= 0.0
            );
            // The resolved kernel is pure in (cell config, graph): it replays
            // byte-identically — that is what lets the trajectory gate it.
            let again = execute_perf_cell(&cell(kernel)).expect("executor never interrupts");
            assert_eq!(
                metrics.get("resolved_kernel").unwrap().canonical(),
                again.get("resolved_kernel").unwrap().canonical()
            );
        }
        // Forced kernels resolve to themselves.
        let recursive = execute_perf_cell(&cell("recursive")).expect("runs");
        assert_eq!(
            recursive.get("resolved_kernel").and_then(Json::as_str),
            Some("recursive")
        );
        let trie = execute_perf_cell(&cell("trie")).expect("runs");
        assert_eq!(
            trie.get("resolved_kernel").and_then(Json::as_str),
            Some("trie")
        );
    }

    #[test]
    fn executor_runs_scaling_cells_at_any_pinned_grant() {
        let cell = |kernel: &str, threads: usize| CellSpec {
            experiment: "scaling-sweep".into(),
            workload: "er(40,0.3)".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("scaling-sweep".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(40)),
                ("param", Json::Num(0.3)),
                ("p", num(4)),
                ("kernel", Json::Str(kernel.into())),
                ("threads", num(threads)),
            ]),
            seed: 3,
        };
        let truth = cliques::count_cliques(&gen::erdos_renyi(40, 0.3, 3), 4);
        for kernel in ["recursive", "trie"] {
            for threads in [1usize, 4] {
                let metrics =
                    execute_perf_cell(&cell(kernel, threads)).expect("executor never interrupts");
                assert_eq!(
                    metrics.get("cliques").and_then(Json::as_f64).unwrap() as usize,
                    truth,
                    "{kernel} at {threads} threads: count diverged"
                );
                assert_eq!(
                    metrics.get("threads").and_then(Json::as_f64).unwrap() as usize,
                    threads
                );
                assert!(metrics.get("best_ms").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn executor_counts_enumeration_cells_exactly() {
        let spec = CellSpec {
            experiment: "enumeration".into(),
            workload: "er(60,0.3)".into(),
            config: Json::obj(vec![
                ("kind", Json::Str("enumeration".into())),
                ("gen", Json::Str("er".into())),
                ("n", num(60)),
                ("param", Json::Num(0.3)),
                ("p", num(4)),
            ]),
            seed: 7,
        };
        let metrics = execute_perf_cell(&spec).expect("executor never interrupts");
        let expected = cliques::count_cliques(&gen::erdos_renyi(60, 0.3, 7), 4);
        assert_eq!(
            metrics.get("cliques").and_then(Json::as_f64).unwrap() as usize,
            expected
        );
    }
}
