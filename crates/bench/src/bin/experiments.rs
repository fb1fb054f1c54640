//! Experiment harness reproducing the paper's quantitative claims.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- <e1|e2|...|e11|perf|all> [--json]
//! ```
//!
//! `--help` prints the full usage; any usage error (an unknown flag, id or
//! sweep, a missing flag value, no id at all) exits 2 without running
//! anything.
//!
//! Each experiment id corresponds to a row of the per-experiment index in
//! `DESIGN.md` §4; the output of `all` is what `EXPERIMENTS.md` records.
//! With `--json`, the tables are suppressed and a single machine-readable
//! JSON document is printed instead: one entry per experiment with the
//! per-run [`RunReport`]s (serialised through `RunReport::to_json`) and the
//! fitted exponents, so successive PRs can diff the bench trajectory.
//!
//! Every experiment runs exclusively through the [`Engine`] API; the
//! exchange-mode ablation (E9) selects the dense mode through
//! `EngineBuilder::exchange_mode` rather than a separate entry point.

use bench::sweep::SweepOutcome;
use bench::{
    core_periphery_workload, fit_exponent, git_rev, listing_workload, run_sweep, sweeps,
    trajectory, two_communities, CellRecord, CellSpec, Json, ResultStore, Sweep, Table,
};
use cliquelist::baselines::simulate_naive_broadcast;
use cliquelist::report::{json_f64, json_string};
use cliquelist::result::phase;
use cliquelist::{verify_against_ground_truth, verify_cliques, Engine, ExchangeMode, RunReport};
use expander::{decompose, DecompositionConfig};
use graphcore::partition::{
    edges_within, lemma_2_7_bound, lemma_2_7_preconditions, sample_vertices,
};
use graphcore::{gen, orientation};
use std::path::Path;

/// The command-line usage, printed by `--help` and after a usage error.
const USAGE: &str = "\
usage: experiments <id> [flags]
  <id>: e1 .. e11 (one experiment), perf (the perf sweep), all (every
        experiment and the perf sweep), report (write the consolidated
        trajectory), check (gate against a committed trajectory)
flags:
  --json               print one machine-readable JSON document
  --resume             perf: skip cells already in the results directory
  --sweep perf|smoke   the sweep perf, report and check run (default perf)
  --results-dir DIR    the result cache (default results)
  --baseline FILE      check: the committed trajectory (default BENCH_TRAJECTORY.json)
  --out FILE|-         report: where to write (default BENCH_TRAJECTORY.json)
  --time-factor F      check: override the baseline's timing factor
  -h, --help           print this usage";

/// One experiment: renders its tables (or, given `true`, its JSON entry).
type Experiment = fn(bool) -> String;

/// Each experiment by id, in the order `all` runs them (the perf sweep,
/// which also reads the command line, follows them).
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1_rounds_vs_n),
    ("e2", e2_fast_k4),
    ("e3", e3_congested_clique),
    ("e4", e4_decomposition_quality),
    ("e5", e5_bad_edges_and_loads),
    ("e6", e6_baselines),
    ("e7", e7_lemma_2_7),
    ("e8", e8_correctness),
    ("e9", e9_ablation),
    ("e10", e10_lower_bound_ratio),
    ("e11", e11_simulated_broadcast),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return;
    }
    let cli = Cli::parse(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        std::process::exit(2)
    });
    match cli.which.as_str() {
        "report" => std::process::exit(report_cmd(&cli)),
        "check" => std::process::exit(check_cmd(&cli)),
        _ => {}
    }
    let json = cli.json;
    let all = cli.which == "all";
    let mut rendered: Vec<String> = Vec::new();
    for (id, experiment) in EXPERIMENTS {
        if all || cli.which == *id {
            rendered.push(experiment(json));
        }
    }
    if all || cli.which == "perf" {
        rendered.push(perf_hot_paths(&cli, json));
    }
    if json {
        println!("{{\"experiments\":[{}]}}", rendered.join(","));
    }
}

/// Parsed command line. Besides the experiment ids (`e1`…`e11`, `perf`,
/// `all`), the binary now has two harness subcommands:
///
/// * `report` — run the sweep through the result cache (always resuming) and
///   write the consolidated trajectory (`--out`, default
///   `BENCH_TRAJECTORY.json`; `-` for stdout).
/// * `check` — run the sweep the same way and compare against a committed
///   trajectory (`--baseline`); exits 1 on regression, 2 on usage errors.
///
/// `perf` accepts `--resume` (skip cells already in `--results-dir`) and all
/// three commands accept `--sweep smoke` for the tiny test grid. Anything
/// else is a usage error: [`Cli::parse`] names it, and `main` exits 2.
struct Cli {
    which: String,
    json: bool,
    resume: bool,
    results_dir: String,
    baseline: String,
    out: String,
    time_factor: Option<f64>,
    sweep: String,
}

impl Cli {
    /// Parses the arguments after the binary name (`--help` is handled
    /// before). Exactly one id is required, and every flag must be known and
    /// carry a valid value.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            which: String::new(),
            json: false,
            resume: false,
            results_dir: "results".to_string(),
            baseline: "BENCH_TRAJECTORY.json".to_string(),
            out: "BENCH_TRAJECTORY.json".to_string(),
            time_factor: None,
            sweep: "perf".to_string(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match arg.as_str() {
                "--json" => cli.json = true,
                "--resume" => cli.resume = true,
                "--results-dir" => cli.results_dir = value()?,
                "--baseline" => cli.baseline = value()?,
                "--out" => cli.out = value()?,
                "--time-factor" => {
                    let value = value()?;
                    let factor = value
                        .parse()
                        .map_err(|_| format!("--time-factor takes a number, got {value:?}"))?;
                    cli.time_factor = Some(factor);
                }
                "--sweep" => {
                    cli.sweep = value()?;
                    if !matches!(cli.sweep.as_str(), "perf" | "smoke") {
                        return Err(format!("unknown sweep {:?}", cli.sweep));
                    }
                }
                _ if arg.starts_with('-') => return Err(format!("unknown flag {arg}")),
                _ if !cli.which.is_empty() => return Err(format!("extra argument {arg}")),
                _ => cli.which = arg.clone(),
            }
        }
        match cli.which.as_str() {
            "" => Err("no experiment id given".to_string()),
            "perf" | "all" | "report" | "check" => Ok(cli),
            id if EXPERIMENTS.iter().any(|&(known, _)| known == id) => Ok(cli),
            id => Err(format!("unknown experiment id {id:?}")),
        }
    }
}

/// Runs the selected sweep through the result store. Progress goes to
/// stderr so `--json` output stays machine-readable.
fn run_selected_sweep(cli: &Cli, resume: bool) -> (Sweep, SweepOutcome, String) {
    let sweep = if cli.sweep == "smoke" {
        sweeps::smoke_sweep()
    } else {
        sweeps::perf_sweep()
    };
    let store = ResultStore::new(Path::new(&cli.results_dir).join(&sweep.id));
    let rev = git_rev();
    let mut executor = sweeps::execute_perf_cell;
    let mut progress = |index: usize, total: usize, spec: &CellSpec, cached: bool| {
        let status = if cached { "cached" } else { "running" };
        eprintln!(
            "[{}/{total}] {}/{} seed={} ({status})",
            index + 1,
            spec.experiment,
            spec.workload,
            spec.seed
        );
    };
    let outcome = run_sweep(&store, &sweep, &rev, resume, &mut executor, &mut progress)
        .expect("the real executor never interrupts");
    (sweep, outcome, rev)
}

/// The n-values of the CONGEST sweeps (dense Turán-style workloads).
const SWEEP_N: &[usize] = &[120, 160, 220];

/// A CONGEST engine tuned like the pre-Engine experiment configuration
/// (constant arboricity slack, bare charge policy).
fn experiment_engine(p: usize, algorithm: &str) -> Engine {
    Engine::builder()
        .p(p)
        .algorithm(algorithm)
        .experiment_scale()
        .build()
        .expect("experiment engine config is valid")
}

/// Accumulates one experiment's machine-readable log while optionally
/// printing the human-readable header.
struct Log {
    id: &'static str,
    claim: &'static str,
    text: bool,
    runs: Vec<String>,
    fits: Vec<String>,
}

impl Log {
    fn new(id: &'static str, claim: &'static str, json: bool) -> Self {
        if !json {
            println!();
            println!("=== {id}: {claim} ===");
        }
        Log {
            id,
            claim,
            text: !json,
            runs: Vec::new(),
            fits: Vec::new(),
        }
    }

    /// Records one run: `context` holds pre-rendered JSON values (numbers
    /// raw, strings through [`json_string`]). A no-op in text mode, where
    /// the rendered document is never printed.
    fn run(&mut self, context: &[(&str, String)], report: Option<&RunReport>) {
        if self.text {
            return;
        }
        let mut entry = String::from("{");
        for (key, value) in context {
            entry.push_str(&format!("{}:{value},", json_string(key)));
        }
        match report {
            Some(report) => entry.push_str(&format!("\"report\":{}", report.to_json())),
            None => entry.push_str("\"report\":null"),
        }
        entry.push('}');
        self.runs.push(entry);
    }

    fn fit(&mut self, series: &str, points: &[(f64, f64)]) -> Option<bench::FitResult> {
        let fit = fit_exponent(points)?;
        if !self.text {
            self.fits.push(format!(
                "{{\"series\":{},\"exponent\":{},\"r_squared\":{}}}",
                json_string(series),
                json_f64(fit.exponent),
                json_f64(fit.r_squared)
            ));
        }
        Some(fit)
    }

    fn render(self) -> String {
        format!(
            "{{\"id\":{},\"claim\":{},\"runs\":[{}],\"fits\":[{}]}}",
            json_string(self.id),
            json_string(self.claim),
            self.runs.join(","),
            self.fits.join(",")
        )
    }
}

/// E1 — Theorem 1.1: K_p listing rounds scale sub-linearly, ~ n^{p/(p+2)} + n^{3/4}.
fn e1_rounds_vs_n(json: bool) -> String {
    let mut log = Log::new(
        "e1",
        "Theorem 1.1 — K_p listing in ~O(n^{3/4} + n^{p/(p+2)}) CONGEST rounds",
        json,
    );
    let mut table = Table::new(&[
        "p",
        "n",
        "m",
        "degeneracy",
        "rounds",
        "decomp",
        "heavy",
        "probes",
        "exchange",
        "final",
        "rounds/n",
    ]);
    for &p in &[4usize, 5, 6] {
        let mut points = Vec::new();
        for &n in SWEEP_N {
            let w = listing_workload(n, p, 7 + n as u64);
            let engine = experiment_engine(p, "general");
            let (report, cliques) = engine.collect(&w.graph);
            verify_cliques(&w.graph, p, &cliques).expect("E1 output must be exact");
            let rounds = report.total_rounds();
            points.push((n as f64, rounds as f64));
            log.run(
                &[
                    ("n", n.to_string()),
                    ("p", p.to_string()),
                    ("m", w.graph.num_edges().to_string()),
                ],
                Some(&report),
            );
            table.row(&[
                p.to_string(),
                n.to_string(),
                w.graph.num_edges().to_string(),
                orientation::arboricity_upper_bound(&w.graph).to_string(),
                rounds.to_string(),
                report.rounds.for_phase(phase::DECOMPOSITION).to_string(),
                report.rounds.for_phase(phase::HEAVY_UPLOAD).to_string(),
                report.rounds.for_phase(phase::LIGHT_PROBES).to_string(),
                report.rounds.for_phase(phase::PART_EXCHANGE).to_string(),
                report.rounds.for_phase(phase::FINAL_BROADCAST).to_string(),
                format!("{:.3}", rounds as f64 / n as f64),
            ]);
        }
        if let Some(fit) = log.fit(&format!("p={p}"), &points) {
            if log.text {
                println!(
                    "p = {p}: fitted rounds ~ n^{:.2} (R² = {:.3}); paper predicts n^{:.2} (+ n^0.75 term), naive baseline is n^1",
                    fit.exponent,
                    fit.r_squared,
                    p as f64 / (p as f64 + 2.0)
                );
            }
        }
    }
    if log.text {
        println!("{table}");
        println!("(dense tripartite workloads with planted cliques; decreasing rounds/n is the sub-linear Theorem 1.1 shape)");
    }
    log.render()
}

/// E2 — Theorem 1.2: the specialised K4 algorithm beats the general one.
fn e2_fast_k4(json: bool) -> String {
    let mut log = Log::new(
        "e2",
        "Theorem 1.2 — K_4 listing in ~O(n^{2/3}) rounds (vs the general algorithm)",
        json,
    );
    let mut table = Table::new(&["n", "m", "general rounds", "fast-K4 rounds", "speedup"]);
    let mut general_points = Vec::new();
    let mut fast_points = Vec::new();
    for &n in SWEEP_N {
        let w = listing_workload(n, 4, 13 + n as u64);
        let (general, general_cliques) = experiment_engine(4, "general").collect(&w.graph);
        let (fast, fast_cliques) = experiment_engine(4, "fast-k4").collect(&w.graph);
        verify_cliques(&w.graph, 4, &general_cliques).expect("general output exact");
        verify_cliques(&w.graph, 4, &fast_cliques).expect("fast-K4 output exact");
        general_points.push((n as f64, general.total_rounds() as f64));
        fast_points.push((n as f64, fast.total_rounds() as f64));
        for report in [&general, &fast] {
            log.run(
                &[("n", n.to_string()), ("m", w.graph.num_edges().to_string())],
                Some(report),
            );
        }
        table.row(&[
            n.to_string(),
            w.graph.num_edges().to_string(),
            general.total_rounds().to_string(),
            fast.total_rounds().to_string(),
            format!(
                "{:.2}x",
                general.total_rounds() as f64 / fast.total_rounds().max(1) as f64
            ),
        ]);
    }
    if log.text {
        println!("{table}");
    }
    let g = log.fit("general", &general_points);
    let f = log.fit("fast-k4", &fast_points);
    if log.text {
        if let (Some(g), Some(f)) = (g, f) {
            println!(
                "fitted exponents: general n^{:.2} (paper: 3/4 term dominates), fast-K4 n^{:.2} (paper: 2/3)",
                g.exponent, f.exponent
            );
        }
    }
    log.render()
}

/// E3 — Theorem 1.3: CONGESTED CLIQUE rounds ~ Θ(1 + m / n^{1+2/p}).
fn e3_congested_clique(json: bool) -> String {
    let mut log = Log::new(
        "e3",
        "Theorem 1.3 — sparsity-aware CONGESTED CLIQUE listing in ~Θ(1 + m/n^{1+2/p}) rounds",
        json,
    );
    let n = 400;
    let mut table = Table::new(&[
        "p",
        "m",
        "rounds",
        "predicted 1+m/n^{1+2/p}",
        "max send",
        "max recv",
    ]);
    // Density sweeps on K_p-free backgrounds (bipartite for triangles,
    // tripartite for K4/K5) keep the ground-truth enumeration cheap while the
    // edge volume — the quantity Theorem 1.3 is about — varies by 20x.
    for &p in &[3usize, 4, 5] {
        let parts = if p == 3 { 2 } else { 3 };
        let mut points = Vec::new();
        let engine = Engine::builder()
            .p(p)
            .algorithm("congested-clique")
            .seed(3)
            .build()
            .expect("valid engine");
        for &density in &[0.05f64, 0.2, 0.4, 0.7, 0.95] {
            let g = gen::multipartite(n, parts, density, 5 + (density * 100.0) as u64);
            let (report, cliques) = engine.collect(&g);
            verify_cliques(&g, p, &cliques).expect("E3 output must be exact");
            let stats = report.congested_clique.expect("CC stats present");
            points.push((g.num_edges() as f64, report.total_rounds() as f64));
            log.run(
                &[
                    ("n", n.to_string()),
                    ("m", g.num_edges().to_string()),
                    ("density", json_f64(density)),
                ],
                Some(&report),
            );
            table.row(&[
                p.to_string(),
                g.num_edges().to_string(),
                report.total_rounds().to_string(),
                format!("{:.2}", stats.predicted_rounds),
                stats.max_send.to_string(),
                stats.max_recv.to_string(),
            ]);
        }
        if let Some(fit) = log.fit(&format!("p={p}"), &points) {
            if log.text {
                println!(
                    "p = {p}: fitted rounds ~ m^{:.2} (paper predicts linear in m once above the constant regime)",
                    fit.exponent
                );
            }
        }
    }
    if log.text {
        println!("{table}");
    }
    log.render()
}

/// E4 — Definition 2.2 / Theorem 2.3: decomposition quality.
fn e4_decomposition_quality(json: bool) -> String {
    let mut log = Log::new(
        "e4",
        "Definition 2.2 — expander decomposition guarantees (|E_r| ≤ |E|/6, degrees, mixing, arboricity)",
        json,
    );
    let mut table = Table::new(&[
        "graph",
        "delta",
        "|E|",
        "|E_m|",
        "|E_s|",
        "|E_r|",
        "E_r frac",
        "clusters",
        "min deg (req)",
        "max mixing (limit)",
        "valid",
    ]);
    let workloads: Vec<(String, graphcore::Graph)> = vec![
        ("er(300,0.15)".into(), gen::erdos_renyi(300, 0.15, 3)),
        ("er(300,0.35)".into(), gen::erdos_renyi(300, 0.35, 3)),
        ("ba(350,6)".into(), gen::barabasi_albert(350, 6, 3)),
        (
            "rmat(9,8)".into(),
            gen::rmat(9, 8, (0.57, 0.19, 0.19, 0.05), 3),
        ),
        ("turan(300,3,0.8)".into(), gen::multipartite(300, 3, 0.8, 3)),
        (
            "2-communities(2x120)".into(),
            two_communities(120, 8, 0.35, 3),
        ),
    ];
    let config = DecompositionConfig::default();
    for (label, graph) in &workloads {
        for &delta in &[0.4f64, 0.5, 0.6] {
            let d = decompose(graph, delta, &config, 1);
            let valid = d.verify(graph).is_ok();
            let em_graph = d.em_graph(graph.num_vertices());
            let min_deg = d
                .clusters
                .iter()
                .map(|c| c.min_internal_degree(&em_graph))
                .min()
                .unwrap_or(0);
            let max_mixing = d
                .clusters
                .iter()
                .map(|c| c.mixing_time(&em_graph))
                .fold(0.0f64, f64::max);
            log.run(
                &[
                    ("graph", json_string(label)),
                    ("delta", json_f64(delta)),
                    (
                        "er_fraction",
                        json_f64(d.er.len() as f64 / graph.num_edges().max(1) as f64),
                    ),
                    ("clusters", d.clusters.len().to_string()),
                    ("valid", valid.to_string()),
                ],
                None,
            );
            table.row(&[
                label.clone(),
                format!("{delta:.1}"),
                graph.num_edges().to_string(),
                d.em.len().to_string(),
                d.es.len().to_string(),
                d.er.len().to_string(),
                format!("{:.3}", d.er.len() as f64 / graph.num_edges().max(1) as f64),
                d.clusters.len().to_string(),
                format!("{} ({})", min_deg, d.degree_threshold),
                format!(
                    "{:.1} ({:.1})",
                    max_mixing,
                    d.config.mixing_limit(graph.num_vertices())
                ),
                valid.to_string(),
            ]);
        }
    }
    if log.text {
        println!("{table}");
        println!(
            "(paper requires E_r fraction ≤ 1/6 ≈ 0.167, cluster min degree ≥ Ω(n^δ), polylog mixing)"
        );
    }
    log.render()
}

/// E5 — Section 2.4.1: bad-edge fraction and the Remark 2.10 load bound.
fn e5_bad_edges_and_loads(json: bool) -> String {
    let mut log = Log::new(
        "e5",
        "Section 2.4.1 — bad-edge fraction ≤ 1/25 of cluster edges; Remark 2.10 per-node load",
        json,
    );
    let mut table = Table::new(&[
        "n",
        "bad factor",
        "bad edges",
        "cluster edges",
        "fraction (limit 0.04)",
        "max learned words",
        "n^{3/4}·A·w",
    ]);
    for &n in &[140usize, 200, 260] {
        for &(label, factor) in &[("paper (100)", 100.0f64), ("stress (0)", 0.0)] {
            // Core-periphery inputs: the periphery is C-light, so the cluster
            // must learn its edges through the probe protocol, and lowering
            // the bad-node constant makes the deferral machinery fire.
            let w = core_periphery_workload(n, 11 + n as u64);
            let a = orientation::arboricity_upper_bound(&w.graph);
            let engine = Engine::builder()
                .p(4)
                .algorithm("general")
                .experiment_scale()
                .bad_node_factor(factor)
                .build()
                .expect("valid engine");
            let (report, cliques) = engine.collect(&w.graph);
            verify_cliques(&w.graph, 4, &cliques).expect("E5 output must be exact");
            for c in &w.planted {
                assert!(
                    cliques.contains(&c.vertices),
                    "planted straddling K4 missing"
                );
            }
            let words = engine.config().words_per_edge;
            let bound = (n as f64).powf(0.75) * a as f64 * words as f64;
            log.run(
                &[
                    ("n", n.to_string()),
                    ("bad_node_factor", json_f64(factor)),
                    ("load_bound", json_f64(bound)),
                ],
                Some(&report),
            );
            table.row(&[
                n.to_string(),
                label.to_string(),
                report.diagnostics.bad_edges.to_string(),
                report.diagnostics.cluster_edges.to_string(),
                format!("{:.4}", report.diagnostics.bad_edge_fraction()),
                report.diagnostics.max_learned_words.to_string(),
                format!("{bound:.0}"),
            ]);
        }
    }
    if log.text {
        println!("{table}");
        println!("(with the paper's constant the bad-edge fraction stays well below 1/25; the stress setting shows the deferral machinery at work while the output stays exact)");
    }
    log.render()
}

/// E6 — who wins: the paper's algorithms vs the naive broadcast and the
/// Eden-et-al-style baseline.
fn e6_baselines(json: bool) -> String {
    let mut log = Log::new(
        "e6",
        "Comparison — paper's K4 algorithms vs naive broadcast and Eden-style baseline",
        json,
    );
    let mut table = Table::new(&[
        "n",
        "m",
        "naive Θ(Δ)",
        "eden-style",
        "general K4",
        "fast K4",
    ]);
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = vec![
        ("naive-broadcast", Vec::new()),
        ("eden-k4", Vec::new()),
        ("general", Vec::new()),
        ("fast-k4", Vec::new()),
    ];
    let naive_engine = Engine::builder()
        .p(4)
        .algorithm("naive-broadcast")
        .build()
        .expect("valid engine");
    let eden_engine = Engine::builder()
        .p(4)
        .algorithm("eden-k4")
        .seed(1)
        .build()
        .expect("valid engine");
    let general_engine = experiment_engine(4, "general");
    let fast_engine = experiment_engine(4, "fast-k4");
    for &n in SWEEP_N {
        let w = listing_workload(n, 4, 29 + n as u64);
        let engines = [&naive_engine, &eden_engine, &general_engine, &fast_engine];
        let mut reports = Vec::new();
        for engine in engines {
            let (report, cliques) = engine.collect(&w.graph);
            verify_cliques(&w.graph, 4, &cliques).expect("all baselines must be exact");
            log.run(
                &[("n", n.to_string()), ("m", w.graph.num_edges().to_string())],
                Some(&report),
            );
            reports.push(report);
        }
        for (series, report) in series.iter_mut().zip(&reports) {
            series.1.push((n as f64, report.total_rounds() as f64));
        }
        table.row(&[
            n.to_string(),
            w.graph.num_edges().to_string(),
            reports[0].total_rounds().to_string(),
            reports[1].total_rounds().to_string(),
            reports[2].total_rounds().to_string(),
            reports[3].total_rounds().to_string(),
        ]);
    }
    if log.text {
        println!("{table}");
    }
    for (label, points) in &series {
        if let Some(fit) = log.fit(label, points) {
            if log.text {
                println!("{label}: rounds ~ n^{:.2}", fit.exponent);
            }
        }
    }
    if log.text {
        println!(
            "(paper exponents: naive Θ(n) = n^1.0, Eden et al. n^0.83, Theorem 1.1 n^0.75, Theorem 1.2 n^0.67; \
the asymptotic crossover in absolute rounds lies far beyond simulation scale because of the p² and polylog \
constants, so the comparison is between the fitted growth exponents)"
        );
    }
    log.render()
}

/// E7 — Lemma 2.7: random vertex samples do not concentrate edges.
fn e7_lemma_2_7(json: bool) -> String {
    let mut log = Log::new(
        "e7",
        "Lemma 2.7 — a q-sample of an m-edge graph induces ≤ 6q²m edges w.h.p.",
        json,
    );
    let n = 500;
    let g = gen::erdos_renyi(n, 0.8, 2);
    let m = g.num_edges();
    let mut table = Table::new(&[
        "q",
        "preconditions",
        "max sampled edges (20 seeds)",
        "bound 6q²m",
        "violations",
    ]);
    for &q in &[0.5f64, 0.7, 0.9] {
        let pre = lemma_2_7_preconditions(n, m, g.max_degree(), q);
        let mut max_edges = 0usize;
        let mut violations = 0usize;
        for seed in 0..20 {
            let sample = sample_vertices(n, q, seed);
            let within = edges_within(&g, &sample);
            max_edges = max_edges.max(within);
            if (within as f64) > lemma_2_7_bound(m, q) {
                violations += 1;
            }
        }
        log.run(
            &[
                ("q", json_f64(q)),
                ("max_sampled_edges", max_edges.to_string()),
                ("bound", json_f64(lemma_2_7_bound(m, q))),
                ("violations", violations.to_string()),
            ],
            None,
        );
        table.row(&[
            format!("{q:.1}"),
            pre.to_string(),
            max_edges.to_string(),
            format!("{:.0}", lemma_2_7_bound(m, q)),
            violations.to_string(),
        ]);
    }
    if log.text {
        println!("{table}");
    }
    log.render()
}

/// E8 — end-to-end correctness matrix.
fn e8_correctness(json: bool) -> String {
    let mut log = Log::new(
        "e8",
        "Correctness — union of node outputs equals the exact K_p list (all algorithms)",
        json,
    );
    let mut table = Table::new(&[
        "workload",
        "p",
        "cliques",
        "CONGEST general",
        "fast K4",
        "congested clique",
        "naive",
    ]);
    let cases: Vec<(String, graphcore::Graph)> = vec![
        ("er(90,0.35)".into(), gen::erdos_renyi(90, 0.35, 1)),
        (
            "turan+planted(120,4)".into(),
            listing_workload(120, 4, 3).graph,
        ),
        ("ba(150,8)".into(), gen::barabasi_albert(150, 8, 2)),
        (
            "planted er(100)".into(),
            gen::planted_cliques(100, 0.05, 3, 6, 4).0,
        ),
        ("complete(15)".into(), gen::complete_graph(15)),
        ("bipartite(30,30)".into(), gen::complete_bipartite(30, 30)),
    ];
    for (label, graph) in &cases {
        for &p in &[4usize, 5] {
            let truth = graphcore::cliques::count_cliques(graph, p);
            let mut statuses: Vec<String> = Vec::new();
            let mut algorithms: Vec<&str> =
                vec!["general", "fast-k4", "congested-clique", "naive-broadcast"];
            if p != 4 {
                algorithms.retain(|&a| a != "fast-k4");
            }
            let mut fast_status = "-".to_string();
            for name in algorithms {
                let engine = Engine::builder()
                    .p(p)
                    .algorithm(name)
                    .experiment_scale()
                    .seed(1)
                    .build()
                    .expect("valid engine");
                let (report, cliques) = engine.collect(graph);
                let ok = if verify_cliques(graph, p, &cliques).is_ok() && cliques.len() == truth {
                    "ok"
                } else {
                    "FAIL"
                };
                log.run(
                    &[
                        ("workload", json_string(label)),
                        ("p", p.to_string()),
                        ("ground_truth", truth.to_string()),
                        ("exact", (ok == "ok").to_string()),
                    ],
                    Some(&report),
                );
                if name == "fast-k4" {
                    fast_status = ok.to_string();
                } else {
                    statuses.push(ok.to_string());
                }
            }
            table.row(&[
                label.clone(),
                p.to_string(),
                truth.to_string(),
                statuses[0].clone(),
                fast_status,
                statuses[1].clone(),
                statuses[2].clone(),
            ]);
        }
    }
    if log.text {
        println!("{table}");
    }
    log.render()
}

/// E9 — ablations: sparsity-aware vs dense exchange, selected through the
/// engine builder.
fn e9_ablation(json: bool) -> String {
    let mut log = Log::new(
        "e9",
        "Ablation — sparsity-aware in-cluster listing vs generic (dense) listing",
        json,
    );
    let mut table = Table::new(&[
        "n",
        "sparsity-aware rounds",
        "dense-assumption rounds",
        "overhead",
    ]);
    let sparse_engine = experiment_engine(4, "general");
    let dense_engine = Engine::builder()
        .p(4)
        .algorithm("general")
        .experiment_scale()
        .exchange_mode(ExchangeMode::DenseAssumption)
        .build()
        .expect("valid engine");
    for &n in SWEEP_N {
        let w = listing_workload(n, 4, 41 + n as u64);
        let (sparse, sparse_cliques) = sparse_engine.collect(&w.graph);
        let (dense, dense_cliques) = dense_engine.collect(&w.graph);
        verify_cliques(&w.graph, 4, &sparse_cliques).expect("sparse output exact");
        verify_cliques(&w.graph, 4, &dense_cliques).expect("dense output exact");
        for (mode, report) in [("sparsity-aware", &sparse), ("dense-assumption", &dense)] {
            log.run(
                &[("n", n.to_string()), ("exchange_mode", json_string(mode))],
                Some(report),
            );
        }
        table.row(&[
            n.to_string(),
            sparse.total_rounds().to_string(),
            dense.total_rounds().to_string(),
            format!(
                "{:.2}x",
                dense.total_rounds() as f64 / sparse.total_rounds().max(1) as f64
            ),
        ]);
    }
    if log.text {
        println!("{table}");
        println!("(the sparsity-aware exchange is the paper's novelty for Challenge 2: the dense variant pays for edges that are not there)");
    }
    log.render()
}

/// E10 — measured rounds against the Ω̃(n^{(p-2)/p}) lower bound of Fischer et al.
fn e10_lower_bound_ratio(json: bool) -> String {
    let mut log = Log::new(
        "e10",
        "Context — measured rounds vs the Fischer et al. lower bound Ω̃(n^{(p-2)/p})",
        json,
    );
    let mut table = Table::new(&["p", "n", "rounds", "n^{(p-2)/p}", "ratio"]);
    for &p in &[4usize, 5, 6] {
        for &n in SWEEP_N {
            let w = listing_workload(n, p, 53 + n as u64);
            let (report, _) = experiment_engine(p, "general").count(&w.graph);
            let lower = (n as f64).powf((p as f64 - 2.0) / p as f64);
            log.run(
                &[
                    ("n", n.to_string()),
                    ("p", p.to_string()),
                    ("lower_bound", json_f64(lower)),
                ],
                Some(&report),
            );
            table.row(&[
                p.to_string(),
                n.to_string(),
                report.total_rounds().to_string(),
                format!("{lower:.0}"),
                format!("{:.2}", report.total_rounds() as f64 / lower),
            ]);
        }
    }
    if log.text {
        println!("{table}");
        println!("(the ratio growing like n^{{2/(p+2)}} reflects the gap between Theorem 1.1 and the known lower bound, as discussed in the paper's Section 5)");
    }
    log.render()
}

/// PERF — the bench-trajectory experiment: wall-clock timings of the
/// enumeration hot path on small fixed dense workloads, plus one engine run
/// per registered algorithm. `experiments -- perf --json` is what the CI
/// perf-smoke job captures and what `BENCH_PR3.json` at the repository root
/// records, so successive PRs can diff simulator performance (unlike E1–E11,
/// the quantities here are timings, not round counts — they carry no
/// scientific claim and vary with the host).
fn perf_hot_paths(cli: &Cli, json: bool) -> String {
    let (sweep, outcome, rev) = run_selected_sweep(cli, cli.resume);
    let records = trajectory::with_speedups(&outcome.records);
    if !json {
        println!();
        println!("=== perf: {} ===", sweep.claim);
        println!(
            "(rev {rev}; {} cells: {} executed, {} cached under {}/{})",
            records.len(),
            outcome.executed,
            outcome.skipped,
            cli.results_dir,
            sweep.id
        );
        let mut table = Table::new(&[
            "experiment",
            "workload",
            "p",
            "threads",
            "kernel",
            "cliques",
            "best ms",
            "mean ms",
            "used",
        ]);
        for record in &records {
            let config = &record.spec.config;
            let metrics = &record.metrics;
            let field = |doc: &Json, key: &str| {
                doc.get(key)
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.2}"))
            };
            let count = metrics
                .get("cliques")
                .and_then(Json::as_f64)
                .map_or_else(|| "skipped".to_string(), |v| format!("{v}"));
            table.row(&[
                record.spec.experiment.clone(),
                record.spec.workload.clone(),
                config
                    .get("p")
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |v| format!("{v}")),
                config
                    .get("threads")
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |v| format!("{v}")),
                config
                    .get("kernel")
                    .and_then(Json::as_str)
                    .unwrap_or("-")
                    .to_string(),
                count,
                field(metrics, "best_ms"),
                field(metrics, "mean_ms"),
                metrics
                    .get("threads_used")
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |v| format!("{v}")),
            ]);
        }
        println!("{table}");
        println!(
            "(timings are host-dependent; `experiments -- report` consolidates these cells \
             plus the historical artifacts into BENCH_TRAJECTORY.json)"
        );
    }
    let runs: Vec<String> = records.iter().map(|r| perf_run_json(r).render()).collect();
    format!(
        "{{\"id\":{},\"claim\":{},\"runs\":[{}],\"fits\":[]}}",
        json_string(&sweep.id),
        json_string(&sweep.claim),
        runs.join(",")
    )
}

/// Renders one cached cell in the shape of the historical `perf` run entries
/// (`kind`/`workload`/`p`/…/`report`), extended with the cell's identity
/// (`seed`, `git_rev`, `key`) and the observed fan-out (`threads_used`).
fn perf_run_json(record: &CellRecord) -> Json {
    let config = &record.spec.config;
    let metrics = &record.metrics;
    let mut run: Vec<(&str, Json)> = vec![
        ("kind", config.get("kind").cloned().unwrap_or(Json::Null)),
        ("workload", Json::Str(record.spec.workload.clone())),
        ("p", config.get("p").cloned().unwrap_or(Json::Null)),
    ];
    if let Some(algorithm) = config.get("algorithm") {
        run.push(("algorithm", algorithm.clone()));
    }
    if let Some(threads) = config.get("threads") {
        run.push(("threads", threads.clone()));
    }
    if let Some(kernel) = config.get("kernel") {
        run.push(("kernel", kernel.clone()));
    }
    for key in [
        "available_parallelism",
        "cliques",
        "resolved_kernel",
        "best_ms",
        "mean_ms",
        "speedup_vs_1_thread",
        "speedup_vs_recursive",
        "speedup_provenance",
        "threads_granted",
        "threads_used",
        "skipped",
    ] {
        if let Some(value) = metrics.get(key) {
            run.push((key, value.clone()));
        }
    }
    run.push(("seed", Json::Num(record.spec.seed as f64)));
    run.push(("git_rev", Json::Str(record.git_rev.clone())));
    run.push((
        "key",
        Json::Str(format!("{:016x}", record.spec.key(&record.git_rev))),
    ));
    run.push((
        "report",
        metrics.get("report").cloned().unwrap_or(Json::Null),
    ));
    Json::obj(run)
}

/// `experiments -- report`: run the sweep through the cache and write the
/// consolidated trajectory artifact.
fn report_cmd(cli: &Cli) -> i32 {
    let (sweep, outcome, rev) = run_selected_sweep(cli, true);
    let history = trajectory::load_history(Path::new("."));
    let doc = trajectory::consolidate(&sweep, &outcome.records, &history, &rev);
    let rendered = doc.render();
    if cli.out == "-" {
        println!("{rendered}");
        return 0;
    }
    if let Err(e) = std::fs::write(&cli.out, format!("{rendered}\n")) {
        eprintln!("error: could not write {}: {e}", cli.out);
        return 2;
    }
    eprintln!(
        "wrote {} ({} cells, {} historical artifacts, rev {rev})",
        cli.out,
        outcome.records.len(),
        history.len()
    );
    0
}

/// `experiments -- check`: the perf gate. Runs the sweep (resuming from the
/// cache), compares against the committed trajectory, and exits nonzero on
/// any regression beyond the thresholds.
fn check_cmd(cli: &Cli) -> i32 {
    let text = match std::fs::read_to_string(&cli.baseline) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", cli.baseline);
            return 2;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: baseline {} is not valid JSON: {e:?}", cli.baseline);
            return 2;
        }
    };
    let (_, outcome, rev) = run_selected_sweep(cli, true);
    let mut violations = trajectory::check(&baseline, &outcome.records, cli.time_factor);
    // The multi-core scaling gate: on a multi-core host every
    // threads > 1 scaling cell must derive its speedup; 1-core hosts pass
    // vacuously inside `check_scaling`.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    violations.extend(trajectory::check_scaling(&outcome.records, host));
    if violations.is_empty() {
        eprintln!(
            "perf gate OK: {} fresh cells at rev {rev} are within thresholds of {}",
            outcome.records.len(),
            cli.baseline
        );
        return 0;
    }
    eprintln!(
        "perf gate FAILED: {} regression(s) vs {}",
        violations.len(),
        cli.baseline
    );
    for violation in &violations {
        eprintln!("  {violation}");
    }
    1
}

/// E11 — message-level validation: the synchronous simulation of the naive
/// broadcast reproduces the analytic `Θ(Δ)` round count and the exact listing.
/// The simulation steps nodes on all cores through `congest`'s deterministic
/// parallel executor.
fn e11_simulated_broadcast(json: bool) -> String {
    let mut log = Log::new(
        "e11",
        "Message-level simulation — naive broadcast on the CONGEST simulator",
        json,
    );
    let mut table = Table::new(&["n", "m", "Δ", "simulated rounds", "words sent", "listing"]);
    for &n in &[100usize, 200, 300] {
        let g = gen::erdos_renyi(n, 0.08, 19 + n as u64);
        let (report, result) = simulate_naive_broadcast(&g, 3, 100_000);
        assert!(report.terminated, "simulation must terminate");
        let exact = verify_against_ground_truth(&g, 3, &result).is_ok();
        let status = if exact { "ok" } else { "FAIL" };
        log.run(
            &[
                ("n", n.to_string()),
                ("m", g.num_edges().to_string()),
                ("simulated_rounds", report.simulated_rounds.to_string()),
                ("words_sent", report.metrics.words_sent.to_string()),
                ("exact", exact.to_string()),
            ],
            None,
        );
        table.row(&[
            n.to_string(),
            g.num_edges().to_string(),
            g.max_degree().to_string(),
            report.simulated_rounds.to_string(),
            report.metrics.words_sent.to_string(),
            status.to_string(),
        ]);
    }
    if log.text {
        println!("{table}");
        println!("(the simulated round count is Δ plus O(1) start-up slack, matching naive_broadcast_rounds)");
    }
    log.render()
}
