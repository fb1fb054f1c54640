//! `congest-engine`: the paper's listing pipeline behind `Engine`
//! (`general` and `fast-k4` at `p = 4`) on tripartite graphs with planted
//! `K_4`s. It is the only workload that reaches `cliquelist` and `expander`.
//!
//! The traced run splits a `general` run into layers by replaying its
//! top-level loop through public functions (`Orientation::from_degeneracy`,
//! `list::list_once`, a final enumeration), then replaying each `list_once`
//! through `arb_list` and timing `expander::decompose` and
//! `gather_cluster_knowledge` on the inputs `arb_list` received.

use crate::metrics::{
    put, put_median, setup_sample, Ctx, Metrics, RunOutput, Tick, Timings, SETUP_REPS,
};
use crate::reference::{census, is_canonical_clique};
use crate::stats::{Outcomes, Rng};
use crate::trace::Tracer;
use distributed_clique_listing::cliquelist::arb_list::arb_list;
use distributed_clique_listing::cliquelist::cluster_knowledge::gather_cluster_knowledge;
use distributed_clique_listing::cliquelist::list::list_once;
use distributed_clique_listing::cliquelist::result::phase;
use distributed_clique_listing::cliquelist::{
    names, CliqueSink, Engine, ListingConfig, Parallelism, RunReport,
};
use distributed_clique_listing::expander::decompose;
use distributed_clique_listing::graphcore::{cliques, gen, EdgeSet, Graph, Orientation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every phase `RunReport::rounds` can charge, for `rounds.<phase>`.
const PHASES: [&str; 11] = [
    phase::DECOMPOSITION,
    phase::MEMBERSHIP,
    phase::HEAVY_UPLOAD,
    phase::LIGHT_PROBES,
    phase::ID_ASSIGNMENT,
    phase::RESHUFFLE,
    phase::PARTITION_BROADCAST,
    phase::PART_EXCHANGE,
    phase::LIGHT_LISTING,
    phase::FINAL_BROADCAST,
    phase::RETRANSMIT,
];

/// Keeps every emitted clique, duplicates included, so that exactly-once
/// emission can be checked.
struct ListSink(Vec<Vec<u32>>);

impl CliqueSink for ListSink {
    fn accept(&mut self, clique: &[u32]) {
        self.0.push(clique.to_vec());
    }
}

/// One input graph and its ground truth.
struct Input {
    graph: Graph,
    edges: Vec<(u32, u32)>,
    k4: u64,
}

/// Vertex counts of the graph set (see [`listing_graph`]). All graphs have
/// one size: a run's time grows steeply with `n`, and the median of a mix of
/// sizes would jump between them from seed to seed. The count is odd so that
/// the traced (even) iterations visit every graph.
fn sizes(toy: bool) -> &'static [usize] {
    if toy {
        &[64; 3]
    } else {
        &[220; 5]
    }
}

/// A tripartite background (`gen::multipartite`, vertex `v` in part
/// `v % 3`, density 0.8) with `n / 40` (2 to 8) vertex-disjoint planted
/// `K_4`s. Every planted clique takes two vertices from one part and one from
/// each other part, so each adds exactly one in-part edge: the `K_4` count,
/// and with it the pipeline's work, then varies little from seed to seed,
/// where uniformly placed cliques make it vary about twofold.
fn listing_graph(n: usize, seed: u64) -> Result<Graph, String> {
    let background = gen::multipartite(n, 3, 0.8, seed);
    let mut rng = Rng::new(seed, 0x91A7);
    let mut parts: Vec<Vec<u32>> = (0..3)
        .map(|part| (0..n as u32).filter(|v| *v as usize % 3 == part).collect())
        .collect();
    for part in &mut parts {
        for i in (1..part.len()).rev() {
            part.swap(i, rng.below(i + 1));
        }
    }
    let mut edges = Vec::new();
    for c in 0..(n / 40).clamp(2, 8) {
        let mut clique = Vec::with_capacity(4);
        for (part, take) in [(c % 3, 2), ((c + 1) % 3, 1), ((c + 2) % 3, 1)] {
            for _ in 0..take {
                clique.push(parts[part].pop().ok_or("graph too small to plant")?);
            }
        }
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                edges.push((u, v));
            }
        }
    }
    background
        .with_edges_added(&edges)
        .map_err(|e| e.to_string())
}

fn build_engine(algorithm: &str, grant: Parallelism, seed: u64) -> Result<Engine, String> {
    Engine::builder()
        .p(4)
        .algorithm(algorithm)
        .seed(seed)
        .parallelism(grant)
        .experiment_scale()
        .build()
        .map_err(|e| format!("engine {algorithm}: {e}"))
}

/// The set-up a caller pays before the first run: the graphs built from
/// their edge lists and both engines built. Returns the engines and the
/// seconds it took.
fn setup_once(inputs: &[Input], ctx: &Ctx) -> Result<((Engine, Engine), f64), String> {
    let start = Instant::now();
    let mut graphs = Vec::with_capacity(inputs.len());
    for input in inputs {
        let n = input.graph.num_vertices();
        graphs.push(Graph::from_edges(n, &input.edges).map_err(|e| e.to_string())?);
    }
    let general = build_engine(names::GENERAL, ctx.grant(), ctx.seed)?;
    let fast = build_engine(names::FAST_K4, ctx.grant(), ctx.seed)?;
    let secs = start.elapsed().as_secs_f64();
    black_box(&graphs);
    Ok(((general, fast), secs))
}

/// Runs `engine` on `input` inside a span named `span`, checking that every
/// clique is emitted exactly once and none is missing. Returns the report
/// and the run's seconds.
fn checked_run(
    engine: &Engine,
    input: &Input,
    tracer: &mut Tracer,
    span: &'static str,
    request: u64,
    outcomes: &mut Outcomes,
) -> (RunReport, f64) {
    let mut sink = ListSink(Vec::new());
    let start = Instant::now();
    let report = tracer.span(span, request, |_| engine.run(&input.graph, &mut sink));
    let secs = start.elapsed().as_secs_f64();
    outcomes.attempt(1);
    let emitted = sink.0.len() as u64;
    let valid = sink
        .0
        .iter()
        .all(|c| c.len() == 4 && is_canonical_clique(&input.graph, c));
    sink.0.sort_unstable();
    sink.0.dedup();
    let once = sink.0.len() as u64 == emitted;
    let ok = report.outcome.is_complete()
        && valid
        && once
        && emitted == input.k4
        && report.sink.emitted == emitted;
    outcomes.check(ok, || {
        format!(
            "{} emitted {emitted} cliques ({} distinct, valid {valid}), want {}",
            report.algorithm,
            sink.0.len(),
            input.k4
        )
    });
    (report, secs)
}

/// The inputs of one `list_once` call made by the top-level loop.
struct ListCall {
    graph: Graph,
    orientation: Orientation,
    bound: usize,
    seed: u64,
}

/// Counts emitted cliques.
struct Tally(u64);

impl CliqueSink for Tally {
    fn accept(&mut self, _clique: &[u32]) {
        self.0 += 1;
    }
}

/// Replays `Engine::run`'s top-level loop for `config` through public
/// functions, in spans `engine.replay` > `engine.orient`,
/// `engine.list_once`, `engine.final_enum`. Returns the cliques listed in
/// all, those listed by `list_once` alone, and the `list_once` inputs.
fn replay(
    graph: &Graph,
    config: &ListingConfig,
    tracer: &mut Tracer,
    request: u64,
) -> (u64, u64, Vec<ListCall>) {
    let mut sink = Tally(0);
    let mut calls = Vec::new();
    let mut by_list_once = 0;
    let n = graph.num_vertices();
    tracer.span("engine.replay", request, |tr| {
        if n < config.p || graph.num_edges() == 0 {
            return;
        }
        let mut current = graph.clone();
        let mut orientation = tr.span("engine.orient", request, |_| {
            Orientation::from_degeneracy(&current)
        });
        let slack = config.arboricity_slack(n);
        let termination = (n.max(2) as f64).powf(config.termination_exponent());
        for iteration in 0..config.max_list_iterations {
            let bound = orientation.max_out_degree().max(1);
            if (bound as f64) / slack <= termination {
                break;
            }
            let seed = config.seed.wrapping_add(iteration as u64 * 7919);
            calls.push(ListCall {
                graph: current.clone(),
                orientation: orientation.clone(),
                bound,
                seed,
            });
            let step = tr.span("engine.list_once", request, |_| {
                list_once(&current, &orientation, bound, config, seed, &mut sink)
            });
            let next_bound = step.remaining_orientation.max_out_degree().max(1);
            current = step.remaining;
            orientation = step.remaining_orientation;
            if next_bound >= bound {
                break;
            }
        }
        by_list_once = sink.0;
        tr.span("engine.final_enum", request, |_| {
            if current.num_edges() > 0 {
                cliques::for_each_clique(&current, config.p, |c| sink.accept(c));
            }
        });
    });
    (sink.0, by_list_once, calls)
}

/// The inputs of one `arb_list` call made inside a replayed `list_once`.
struct ArbCall {
    graph: Graph,
    orientation: Orientation,
    er: EdgeSet,
    delta: f64,
    seed: u64,
    clusters: usize,
}

/// Replays each `list_once` call of `calls` through `arb_list` (spans
/// `engine.arb_list`), then times `expander::decompose` (`engine.decompose`)
/// and `gather_cluster_knowledge` over every cluster (`engine.knowledge`) on
/// the inputs each `arb_list` call received. `arb_list` fans the clusters
/// out over its thread grant; the knowledge span runs them one after another,
/// so it measures CPU work, not a share of `arb_list`'s wall time. Returns the
/// cliques listed, which must equal what the `list_once` calls listed.
fn breakdown(
    calls: &[ListCall],
    config: &ListingConfig,
    tracer: &mut Tracer,
    request: u64,
    outcomes: &mut Outcomes,
) -> u64 {
    let mut sink = Tally(0);
    let mut arb_calls = Vec::new();
    for call in calls {
        let n = call.graph.num_vertices();
        let slack = config.arboricity_slack(n);
        if (call.bound as f64) / slack <= 1.0 {
            continue;
        }
        let target = (call.bound as f64 / slack).max(1.5);
        let delta = (target.ln() / (n.max(2) as f64).ln()).clamp(0.05, 0.95);
        let mut current = call.graph.clone();
        let mut orientation = call.orientation.clone();
        let mut er = call.graph.edge_set();
        let mut iterations = 0u64;
        while !er.is_empty() && iterations < config.max_arb_iterations as u64 {
            iterations += 1;
            let seed = call.seed.wrapping_add(iterations);
            let step = tracer.span("engine.arb_list", request, |_| {
                arb_list(
                    &current,
                    &orientation,
                    &er,
                    call.bound,
                    delta,
                    config,
                    seed,
                    &mut sink,
                )
            });
            arb_calls.push(ArbCall {
                graph: current.clone(),
                orientation: orientation.clone(),
                er: er.clone(),
                delta,
                seed,
                clusters: step.diagnostics.clusters,
            });
            if !step.goal_edges.is_empty() {
                current = current.without_edges(&step.goal_edges);
                orientation = orientation.restrict_to(&current.edge_set());
            }
            let previous = er.len();
            er = step.er_new;
            if er.len() >= previous && previous > 0 {
                break;
            }
        }
    }
    for call in &arb_calls {
        let n = call.graph.num_vertices();
        let Ok(er_graph) = Graph::from_edge_set(n, &call.er) else {
            outcomes.fail(1, "E_r has an endpoint out of range");
            continue;
        };
        let decomposition = tracer.span("engine.decompose", request, |_| {
            decompose(&er_graph, call.delta, &config.decomposition, call.seed)
        });
        outcomes.attempt(1);
        outcomes.check(decomposition.clusters.len() == call.clusters, || {
            "decompose on arb_list's inputs found other clusters".to_string()
        });
        let heavy = config.heavy_threshold(n);
        let ems: Vec<EdgeSet> = decomposition
            .clusters
            .iter()
            .map(|c| c.edges_within(&decomposition.em))
            .collect();
        tracer.span("engine.knowledge", request, |_| {
            for (cluster, em) in decomposition.clusters.iter().zip(&ems) {
                black_box(gather_cluster_knowledge(
                    &call.graph,
                    &call.orientation,
                    cluster,
                    em,
                    heavy,
                    config,
                ));
            }
        });
    }
    sink.0
}

/// Per request, the summed span time of `name` (0 where absent) for every
/// request in `requests`.
fn column(tracer: &Tracer, name: &str, requests: &[u64]) -> Vec<f64> {
    let sums = tracer.per_request_ms(name);
    requests
        .iter()
        .map(|r| sums.get(r).copied().unwrap_or(0.0))
        .collect()
}

/// Per-layer metrics of the replayed `general` runs.
fn engine_layer_metrics(m: &mut Metrics, tracer: &Tracer) {
    let runs: BTreeMap<u64, f64> = tracer.per_request_ms("engine.run");
    let replays = tracer.per_request_ms("engine.replay");
    let requests: Vec<u64> = runs
        .keys()
        .copied()
        .filter(|r| replays.contains_key(r))
        .collect();
    let run = column(tracer, "engine.run", &requests);
    let orient = column(tracer, "engine.orient", &requests);
    let list = column(tracer, "engine.list_once", &requests);
    let fin = column(tracer, "engine.final_enum", &requests);
    let dec = column(tracer, "engine.decompose", &requests);
    let know = column(tracer, "engine.knowledge", &requests);
    let own = tracer.per_request_self_ms("engine.replay");
    let own: Vec<f64> = requests
        .iter()
        .map(|r| own.get(r).copied().unwrap_or(0.0))
        .collect();
    let each = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..requests.len()).map(f).collect() };
    put_median(m, "engine.orient_ms", &orient);
    put_median(m, "engine.list_once_ms", &list);
    put_median(m, "engine.final_enum_ms", &fin);
    put_median(m, "engine.decompose_ms", &dec);
    put_median(m, "engine.knowledge_ms", &know);
    put_median(m, "engine.replay_self_ms", &own);
    put_median(m, "engine.list_rest_ms", &each(&|i| list[i] - dec[i]));
    put_median(
        m,
        "engine.stage_cover",
        &each(&|i| (orient[i] + list[i] + fin[i]) / run[i]),
    );
}

/// `congest-engine`: round-robin over the graph set, each iteration runs
/// `general` (`op`) and then `fast-k4` (`op2`) on the next graph.
pub fn congest_engine(ctx: &Ctx) -> Result<RunOutput, String> {
    let sizes = sizes(ctx.toy);
    let mut outcomes = Outcomes::default();
    let mut inputs: Vec<Input> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let seed = ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let graph = listing_graph(n, seed)?;
        let reference = census(&graph, false);
        outcomes.attempt(1);
        let library = cliques::count_cliques(&graph, 4) as u64;
        outcomes.check(library == reference.k4, || {
            format!("count_cliques K4 = {library}, reference {}", reference.k4)
        });
        inputs.push(Input {
            edges: graph.edges().collect(),
            graph,
            k4: reference.k4,
        });
    }

    let mut timings = Timings::default();
    let mut engines = None;
    for rep in 0..SETUP_REPS {
        let (built, secs) = setup_sample(|| setup_once(&inputs, ctx))?;
        if rep > 0 {
            timings.setup_s.push(secs);
        }
        engines = Some(built);
    }
    let (general, fast) = engines.ok_or("no set-up repetition ran")?;
    let off = build_engine(names::GENERAL, Parallelism::Off, ctx.seed)?;

    let mut tracer = Tracer::new(ctx.trace);
    let mut first: Vec<Option<RunReport>> = vec![None; inputs.len()];
    let mut speedups = Vec::new();
    let mut threads_used = 0;
    ctx.run_loop(2 * inputs.len() as u64, |tick| {
        let Tick {
            iter,
            traced,
            setup_due,
        } = tick;
        tracer.pause(!traced);
        if setup_due {
            match setup_sample(|| setup_once(&inputs, ctx)) {
                Ok((_, secs)) => timings.setup_s.push(secs),
                Err(why) => outcomes.fail(1, why),
            }
        }
        let g = (iter as usize) % inputs.len();
        let input = &inputs[g];
        // A traced iteration pairs the run with one at `Parallelism::Off`,
        // alternating which of the two goes first.
        let off_first = traced && iter.is_multiple_of(4);
        let mut off_secs = 0.0;
        if off_first {
            off_secs = checked_run(
                &off,
                input,
                &mut tracer,
                "engine.run_off",
                iter,
                &mut outcomes,
            )
            .1;
        }
        let (report, secs) = checked_run(
            &general,
            input,
            &mut tracer,
            "engine.run",
            iter,
            &mut outcomes,
        );
        if traced && !off_first {
            off_secs = checked_run(
                &off,
                input,
                &mut tracer,
                "engine.run_off",
                iter,
                &mut outcomes,
            )
            .1;
        }
        threads_used = threads_used.max(report.parallelism.threads_used);
        match &first[g] {
            Some(earlier) => outcomes.check(earlier.to_json() == report.to_json(), || {
                format!("general report on graph {g} changed between runs")
            }),
            None => first[g] = Some(report.clone()),
        }
        let (_, fast_secs) = checked_run(
            &fast,
            input,
            &mut tracer,
            "engine.run_fast_k4",
            iter,
            &mut outcomes,
        );
        if traced {
            timings.op_ms_traced.push(secs * 1e3);
            let config = general.config();
            let (total, listed, calls) = replay(&input.graph, config, &mut tracer, iter);
            outcomes.attempt(1);
            outcomes.check(total == input.k4, || {
                format!("replay listed {total}, Engine::run {}", input.k4)
            });
            let again = breakdown(&calls, config, &mut tracer, iter, &mut outcomes);
            outcomes.attempt(1);
            outcomes.check(again == listed, || {
                format!("arb_list replay listed {again}, list_once {listed}")
            });
            speedups.push(off_secs / secs);
        } else {
            timings.op_ms.push(secs * 1e3);
            timings.op2_ms.push(fast_secs * 1e3);
            timings.requests += 2.0;
            timings.request_secs += secs + fast_secs;
        }
    });

    let reports: Vec<&RunReport> = first.iter().flatten().collect();
    let mean = |f: &dyn Fn(&RunReport) -> f64| -> Option<f64> {
        (!reports.is_empty())
            .then(|| reports.iter().map(|r| f(r)).sum::<f64>() / reports.len() as f64)
    };
    timings.work = reports.iter().map(|r| r.total_rounds() as f64).collect();
    let metrics = if ctx.trace {
        let mut m = Metrics::new();
        engine_layer_metrics(&mut m, &tracer);
        put_median(&mut m, "merge.engine_speedup_vs_off", &speedups);
        put(&mut m, "merge.threads_used", Some(threads_used as f64), 1);
        let samples = reports.len();
        for phase in PHASES {
            put(
                &mut m,
                &format!("rounds.{phase}"),
                mean(&|r| r.rounds.for_phase(phase) as f64),
                samples,
            );
        }
        put(
            &mut m,
            "engine.clusters",
            mean(&|r| r.diagnostics.clusters as f64),
            samples,
        );
        put(
            &mut m,
            "engine.cluster_edges",
            mean(&|r| r.diagnostics.cluster_edges as f64),
            samples,
        );
        put(
            &mut m,
            "engine.bad_edges",
            mean(&|r| r.diagnostics.bad_edges as f64),
            samples,
        );
        put(
            &mut m,
            "engine.max_learned_words",
            mean(&|r| r.diagnostics.max_learned_words as f64),
            samples,
        );
        put(
            &mut m,
            "engine.list_iterations",
            mean(&|r| r.diagnostics.list_iterations as f64),
            samples,
        );
        put(
            &mut m,
            "engine.arb_iterations",
            mean(&|r| r.diagnostics.arb_iterations as f64),
            samples,
        );
        timings.trace_overhead(&mut m);
        m
    } else {
        timings.end_to_end(&outcomes)
    };
    let rounds: Vec<String> = reports
        .iter()
        .map(|r| r.total_rounds().to_string())
        .collect();
    Ok(RunOutput {
        outcomes,
        metrics,
        facts: vec![
            (
                "graphs",
                format!(
                    "{} x tripartite(n={}, d=0.8) + {} planted K4",
                    sizes.len(),
                    sizes[0],
                    (sizes[0] / 40).clamp(2, 8)
                ),
            ),
            (
                "k4",
                inputs
                    .iter()
                    .map(|i| i.k4.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("rounds", rounds.join(" ")),
            (
                "engine_threads_granted",
                general.config().effective_threads(true).to_string(),
            ),
            ("engine_threads_used", threads_used.to_string()),
        ],
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_lists_what_engine_run_lists() {
        for seed in [1, 2] {
            let graph = listing_graph(64, seed).expect("64 vertices fit the planted cliques");
            let engine =
                build_engine(names::GENERAL, Parallelism::Threads(2), seed).expect("valid engine");
            let (_, count) = engine.count(&graph);
            let mut tracer = Tracer::new(true);
            let (replayed, by_list_once, calls) = replay(&graph, engine.config(), &mut tracer, 0);
            assert_eq!(replayed, count, "seed {seed}");
            assert!(!calls.is_empty(), "list_once never ran at this size");
            let mut outcomes = Outcomes::default();
            let again = breakdown(&calls, engine.config(), &mut tracer, 0, &mut outcomes);
            assert_eq!(again, by_list_once);
            assert_eq!(outcomes.failed, 0, "{:?}", outcomes.messages);
            assert!(!tracer.durations_ms("engine.decompose").is_empty());
        }
    }

    #[test]
    fn planted_cliques_are_cliques() {
        let graph = listing_graph(120, 5).expect("fits");
        let background = gen::multipartite(120, 3, 0.8, 5);
        let added = graph.num_edges() - background.num_edges();
        // Three planted K4s, each with one in-part edge that the background
        // cannot hold; their cross-part edges may already exist.
        assert!((3..=18).contains(&added), "{added}");
        assert!(census(&graph, false).k4 > 0);
        assert_eq!(census(&background, false).k4, 0);
    }
}
