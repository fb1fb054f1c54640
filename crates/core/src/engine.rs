//! The unified entry point for every listing algorithm.
//!
//! An [`Engine`] pairs one [`ListingAlgorithm`] with a validated
//! [`ListingConfig`] and streams the listed cliques of a run into any
//! [`CliqueSink`]:
//!
//! ```
//! use cliquelist::{CollectSink, Engine};
//! use graphcore::gen;
//!
//! let graph = gen::erdos_renyi(60, 0.3, 7);
//! let engine = Engine::builder().p(4).algorithm("general").seed(7).build()?;
//! let mut sink = CollectSink::new();
//! let report = engine.run(&graph, &mut sink);
//! assert_eq!(report.sink.emitted as usize, sink.len());
//! # Ok::<(), cliquelist::ConfigError>(())
//! ```
//!
//! The five built-in algorithms (the paper's three theorems plus the two
//! baselines) are discoverable through [`algorithms`] and selectable by name
//! through [`EngineBuilder::algorithm`]; external algorithms implement
//! [`ListingAlgorithm`] and plug in through [`EngineBuilder::custom`]. See
//! `DESIGN.md` §6 for the trait boundaries.

use crate::baselines::{eden_k4, naive};
use crate::config::{ExchangeMode, ListingConfig, Parallelism, Resilience, Variant};
use crate::congested_clique;
use crate::driver;
use crate::error::ConfigError;
use crate::report::{KernelSummary, Model, ParallelismSummary, RunOutcome, RunReport, SinkSummary};
use crate::result::phase;
use crate::sink::{CliqueSink, CollectSink, CountSink, Counted, CrashFilter};
use congest::ChargePolicy;
use expander::DecompositionConfig;
use graphcore::{Clique, Graph, KernelStrategy};
use std::fmt;

/// Registry names of the built-in algorithms.
pub mod names {
    /// The general `K_p` CONGEST algorithm (Theorem 1.1).
    pub const GENERAL: &str = "general";
    /// The specialised `K_4` CONGEST algorithm (Theorem 1.2).
    pub const FAST_K4: &str = "fast-k4";
    /// The sparsity-aware CONGESTED CLIQUE algorithm (Theorem 1.3).
    pub const CONGESTED_CLIQUE: &str = "congested-clique";
    /// The trivial `Θ(Δ)` broadcast baseline.
    pub const NAIVE_BROADCAST: &str = "naive-broadcast";
    /// The Eden-et-al-style `K_4` baseline (DISC 2019 stand-in).
    pub const EDEN_K4: &str = "eden-k4";
}

/// Whether an algorithm's local enumeration can be sharded across worker
/// threads (the [`Parallelism`] knob of the builder).
///
/// This is *capability* metadata: it depends only on how the algorithm
/// computes, never on the requested thread count, so reports derived from it
/// stay byte-identical across parallelism settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelSupport {
    /// The algorithm's listing work is one dense local enumeration over an
    /// aggregate graph: its degeneracy-DAG roots shard across worker threads
    /// with byte-identical output (see `DESIGN.md` §8).
    Sharded,
    /// The algorithm is pinned to sequential execution; the payload says why
    /// and is recorded as the sequential-fallback reason in
    /// [`RunReport::parallelism`](crate::RunReport).
    Sequential(&'static str),
}

/// Static capabilities of a listing algorithm: which clique sizes it
/// supports, which communication model its rounds are measured in, and
/// whether its local enumeration can run sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgorithmInfo {
    /// Registry name (stable, lower-case, kebab-case).
    pub name: &'static str,
    /// Communication model.
    pub model: Model,
    /// Smallest supported clique size.
    pub min_p: usize,
    /// Largest supported clique size (`None` = unbounded).
    pub max_p: Option<usize>,
    /// Whether the local enumeration honours the [`Parallelism`] knob.
    pub parallel: ParallelSupport,
    /// One-line human description.
    pub summary: &'static str,
}

impl AlgorithmInfo {
    /// Whether the algorithm supports listing `K_p`.
    pub fn supports_p(&self, p: usize) -> bool {
        p >= self.min_p && self.max_p.is_none_or(|max| p <= max)
    }
}

/// A clique-listing algorithm runnable through an [`Engine`].
///
/// Implementations receive a **validated** configuration (the builder rejects
/// anything violating [`ListingConfig::validate`] and the algorithm's
/// supported clique-size range) and must uphold the sink contract: each
/// distinct clique of the run is passed to [`CliqueSink::accept`] exactly
/// once, in canonical form, in a deterministic order.
pub trait ListingAlgorithm: Sync {
    /// Static capabilities (name, model, supported clique sizes).
    fn info(&self) -> AlgorithmInfo;

    /// Adapts a validated base configuration to this algorithm (e.g. the
    /// fast-`K_4` algorithm pins `variant = FastK4`). Called once by the
    /// builder, after user overrides and before final validation.
    fn prepare(&self, config: ListingConfig) -> ListingConfig {
        config
    }

    /// Runs the algorithm on `graph`, emitting every listed clique into
    /// `sink` and returning the measured cost. Must not panic on degenerate
    /// graphs (empty, fewer vertices than `p`).
    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport;
}

/// Theorem 1.1: the general `K_p` CONGEST algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeneralListing;

impl ListingAlgorithm for GeneralListing {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: names::GENERAL,
            model: Model::Congest,
            min_p: 3,
            max_p: None,
            parallel: ParallelSupport::Sharded,
            summary: "general K_p listing in ~O(n^{3/4} + n^{p/(p+2)}) CONGEST rounds",
        }
    }

    fn prepare(&self, mut config: ListingConfig) -> ListingConfig {
        config.variant = Variant::General;
        config
    }

    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport {
        let mut report = RunReport::new(names::GENERAL, Model::Congest, config.p);
        (
            report.rounds,
            report.diagnostics,
            report.parallelism.threads_used,
        ) = driver::run_congest(graph, config, sink);
        report
    }
}

/// Theorem 1.2: the specialised `K_4` CONGEST algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastK4Listing;

impl ListingAlgorithm for FastK4Listing {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: names::FAST_K4,
            model: Model::Congest,
            min_p: 4,
            max_p: Some(4),
            parallel: ParallelSupport::Sharded,
            summary: "specialised K_4 listing in ~O(n^{2/3}) CONGEST rounds",
        }
    }

    fn prepare(&self, mut config: ListingConfig) -> ListingConfig {
        config.variant = Variant::FastK4;
        config
    }

    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport {
        let mut report = RunReport::new(names::FAST_K4, Model::Congest, config.p);
        (
            report.rounds,
            report.diagnostics,
            report.parallelism.threads_used,
        ) = driver::run_congest(graph, config, sink);
        report
    }
}

/// Theorem 1.3: the sparsity-aware CONGESTED CLIQUE algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct CongestedCliqueListing;

impl ListingAlgorithm for CongestedCliqueListing {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: names::CONGESTED_CLIQUE,
            model: Model::CongestedClique,
            min_p: 3,
            max_p: None,
            parallel: ParallelSupport::Sharded,
            summary: "sparsity-aware K_p listing in ~Θ(1 + m/n^{1+2/p}) CONGESTED CLIQUE rounds",
        }
    }

    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport {
        let mut report = RunReport::new(names::CONGESTED_CLIQUE, Model::CongestedClique, config.p);
        let (rounds, stats, threads_used) = congested_clique::run_streaming(graph, config, sink);
        report.rounds = rounds;
        report.congested_clique = Some(stats);
        report.parallelism.threads_used = threads_used;
        report
    }
}

/// The trivial `Θ(Δ)` broadcast baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveBroadcastListing;

impl ListingAlgorithm for NaiveBroadcastListing {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: names::NAIVE_BROADCAST,
            model: Model::Congest,
            min_p: 3,
            max_p: None,
            parallel: ParallelSupport::Sharded,
            summary: "naive neighbourhood broadcast in Θ(Δ) CONGEST rounds",
        }
    }

    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport {
        let mut report = RunReport::new(names::NAIVE_BROADCAST, Model::Congest, config.p);
        (report.rounds, report.parallelism.threads_used) =
            naive::run_streaming(graph, config, sink);
        report
    }
}

/// The Eden-et-al-style `K_4` baseline (single decomposition pass, dense
/// exchange, naive finish).
#[derive(Clone, Copy, Debug, Default)]
pub struct EdenK4Listing;

impl ListingAlgorithm for EdenK4Listing {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: names::EDEN_K4,
            model: Model::Congest,
            min_p: 4,
            max_p: Some(4),
            parallel: ParallelSupport::Sharded,
            summary: "Eden-et-al-style K_4 baseline in O(n^{5/6+o(1)}) CONGEST rounds",
        }
    }

    fn prepare(&self, mut config: ListingConfig) -> ListingConfig {
        // The baseline deliberately lacks the paper's two improvements: it
        // runs a single pass (no arboricity iteration) with the generic,
        // non-sparsity-aware exchange.
        config.variant = Variant::FastK4;
        config.exchange_mode = ExchangeMode::DenseAssumption;
        config.max_arb_iterations = config.max_arb_iterations.min(4);
        config
    }

    fn run(&self, graph: &Graph, config: &ListingConfig, sink: &mut dyn CliqueSink) -> RunReport {
        let mut report = RunReport::new(names::EDEN_K4, Model::Congest, config.p);
        (
            report.rounds,
            report.diagnostics,
            report.parallelism.threads_used,
        ) = eden_k4::run_streaming(graph, config, sink);
        report
    }
}

/// The built-in algorithm registry, in stable order.
static REGISTRY: &[&dyn ListingAlgorithm] = &[
    &GeneralListing,
    &FastK4Listing,
    &CongestedCliqueListing,
    &NaiveBroadcastListing,
    &EdenK4Listing,
];

/// Iterates over every registered algorithm (the paper's three theorems plus
/// the two baselines), in stable order.
pub fn algorithms() -> impl Iterator<Item = &'static dyn ListingAlgorithm> {
    REGISTRY.iter().copied()
}

/// Looks an algorithm up by its registry name (see [`names`]).
pub fn algorithm_named(name: &str) -> Option<&'static dyn ListingAlgorithm> {
    algorithms().find(|a| a.info().name == name)
}

enum AlgorithmHandle {
    Builtin(&'static dyn ListingAlgorithm),
    Custom(Box<dyn ListingAlgorithm>),
}

impl AlgorithmHandle {
    fn get(&self) -> &dyn ListingAlgorithm {
        match self {
            AlgorithmHandle::Builtin(a) => *a,
            AlgorithmHandle::Custom(a) => a.as_ref(),
        }
    }
}

/// A validated pairing of one [`ListingAlgorithm`] with a [`ListingConfig`],
/// ready to run on any number of graphs.
pub struct Engine {
    algorithm: AlgorithmHandle,
    config: ListingConfig,
    resilience: Resilience,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("algorithm", &self.algorithm.get().info().name)
            .field("config", &self.config)
            .finish()
    }
}

impl Engine {
    /// Starts building an engine. `p` has no default and must be set.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The algorithm's static capabilities.
    pub fn algorithm_info(&self) -> AlgorithmInfo {
        self.algorithm.get().info()
    }

    /// The validated configuration the engine runs with.
    pub fn config(&self) -> &ListingConfig {
        &self.config
    }

    /// The fault and degradation envelope the engine runs under (the default
    /// is fault-free and unbounded).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Runs the algorithm on `graph`, streaming every listed clique into
    /// `sink`, and returns the [`RunReport`] (rounds, diagnostics, sink
    /// summary). Under a non-inert [`Resilience`] envelope the listing may be
    /// partial and the report's [`RunOutcome`] says why; the default envelope
    /// always reports [`RunOutcome::Complete`] and leaves the report
    /// byte-identical to an engine built without one.
    pub fn run(&self, graph: &Graph, sink: &mut dyn CliqueSink) -> RunReport {
        let algorithm = self.algorithm.get();
        let info = algorithm.info();
        let mut counted = Counted::new(sink);
        let mut report = if self.resilience.is_inert() {
            algorithm.run(graph, &self.config, &mut counted)
        } else {
            self.run_with_faults(graph, algorithm, &mut counted)
        };
        report.algorithm = info.name;
        report.model = Some(info.model);
        report.p = self.config.p;
        report.sink = SinkSummary {
            emitted: counted.emitted(),
            saturated: counted.is_saturated(),
        };
        // Like the thread counts, the kernel summary is an execution detail
        // kept out of `to_json`: the resolution is recomputed here as a pure
        // function of the input graph's degeneracy so callers can see which
        // kernel `Auto` picked without re-deriving the heuristic.
        report.kernel = KernelSummary {
            requested: self.config.kernel,
            resolved: self
                .config
                .kernel
                .resolve(graphcore::orientation::degeneracy_ordering(graph).degeneracy),
        };
        // Capability only — never the requested thread count — so the
        // serialised report stays byte-identical across parallelism settings.
        // `threads_used` is whatever fan-out the algorithm recorded while it
        // ran (clamped to the grant; 1 when it recorded nothing).
        let sharded = matches!(info.parallel, ParallelSupport::Sharded);
        let threads_granted = self.config.effective_threads(sharded);
        report.parallelism = ParallelismSummary {
            supported: sharded,
            sequential_reason: match info.parallel {
                ParallelSupport::Sequential(reason) => Some(reason),
                ParallelSupport::Sharded => None,
            },
            threads_granted,
            threads_used: report
                .parallelism
                .threads_used
                .clamp(1, threads_granted.max(1)),
        };
        report
    }

    /// Runs the algorithm under a non-inert [`Resilience`] envelope.
    ///
    /// Every decision here is a pure function of the graph, the configuration
    /// and the envelope — never of thread scheduling — so degraded runs replay
    /// byte-identically at any thread grant:
    ///
    /// * crash-stopped nodes (crash round within the budget horizon) stop
    ///   reporting: cliques they own are filtered out of the listing and the
    ///   run is `Degraded` (or `Aborted` when nobody survives);
    /// * a lossy plan with the reliable transport enabled keeps the listing
    ///   intact and charges the transport's expected retransmission overhead
    ///   as an explicit `retransmit` phase; with the transport disabled (or
    ///   fully lossy links) the loss cannot be masked and the run degrades;
    /// * a round budget smaller than the rounds the run needed degrades the
    ///   run, or aborts it when nothing was emitted at all.
    fn run_with_faults(
        &self,
        graph: &Graph,
        algorithm: &dyn ListingAlgorithm,
        counted: &mut Counted<&mut dyn CliqueSink>,
    ) -> RunReport {
        let res = &self.resilience;
        let horizon = res.max_rounds.unwrap_or(u64::MAX);
        let n = graph.num_vertices();
        let mut crashed = vec![false; n];
        let mut crash_count = 0usize;
        for &(node, round) in res.fault_plan.crashes() {
            if round <= horizon && node < n && !crashed[node] {
                crashed[node] = true;
                crash_count += 1;
            }
        }
        let info = algorithm.info();
        // Unrecoverable: every node crash-stopped, nobody is left to report.
        if n > 0 && crash_count == n {
            let mut report = RunReport::new(info.name, info.model, self.config.p);
            report.outcome = RunOutcome::Aborted;
            return report;
        }
        let mut report = if crash_count > 0 {
            let mut filter = CrashFilter::new(&mut *counted as &mut dyn CliqueSink, crashed);
            algorithm.run(graph, &self.config, &mut filter)
        } else {
            algorithm.run(graph, &self.config, counted)
        };

        let mut reasons: Vec<String> = Vec::new();
        if crash_count > 0 {
            reasons.push(format!(
                "{crash_count} node(s) crash-stopped; cliques owned by crashed nodes are missing"
            ));
        }
        let drop_p = res.fault_plan.drop_probability();
        if drop_p > 0.0 {
            if !res.reliable_transport {
                reasons.push(format!(
                    "message loss (drop probability {drop_p}) without reliable transport"
                ));
            } else if drop_p >= 1.0 {
                reasons.push(
                    "links are fully lossy; the reliable transport cannot mask total loss"
                        .to_string(),
                );
            } else {
                // A stop-and-wait schedule over links that lose a `p` fraction
                // of rounds replays each lost round, costing `p / (1 - p)`
                // extra rounds per useful round.
                let base = report.rounds.total();
                let overhead = ((base as f64) * drop_p / (1.0 - drop_p)).ceil() as u64;
                report.rounds.add(phase::RETRANSMIT, overhead);
            }
        }
        if let Some(budget) = res.max_rounds {
            let needed = report.rounds.total();
            if needed > budget {
                if counted.emitted() == 0 {
                    report.outcome = RunOutcome::Aborted;
                    return report;
                }
                reasons.push(format!(
                    "round budget exhausted: needed {needed} of {budget}"
                ));
            }
        }
        if !reasons.is_empty() {
            report.outcome = RunOutcome::Degraded(reasons.join("; "));
        }
        report
    }

    /// Convenience: runs with a [`CollectSink`] and returns the report plus
    /// the listed cliques in canonical sorted order — never the sink's
    /// internal (hash-ordered, nondeterministic) iteration order, so callers
    /// can compare, diff and serialise the listing directly.
    pub fn collect(&self, graph: &Graph) -> (RunReport, Vec<Clique>) {
        let mut sink = CollectSink::new();
        let report = self.run(graph, &mut sink);
        (report, sink.sorted())
    }

    /// Convenience: runs with a [`CountSink`] (no per-clique storage) and
    /// returns the report plus the clique count.
    pub fn count(&self, graph: &Graph) -> (RunReport, u64) {
        let mut sink = CountSink::new();
        let report = self.run(graph, &mut sink);
        (report, sink.count)
    }
}

/// Typed, fallible builder for [`Engine`] — the replacement for the panicking
/// `ListingConfig` constructors and the incompatible free-function entry
/// points.
///
/// Unset options keep the defaults of [`ListingConfig::try_for_p`]; the
/// selected algorithm gets a final [`ListingAlgorithm::prepare`] pass (e.g.
/// `fast-k4` pins its variant), and [`EngineBuilder::build`] validates
/// everything, returning a [`ConfigError`] instead of panicking.
#[derive(Default)]
pub struct EngineBuilder {
    p: Option<usize>,
    algorithm: Option<String>,
    custom: Option<Box<dyn ListingAlgorithm>>,
    seed: Option<u64>,
    parallelism: Option<Parallelism>,
    kernel: Option<KernelStrategy>,
    exchange_mode: Option<ExchangeMode>,
    charge_policy: Option<ChargePolicy>,
    decomposition: Option<DecompositionConfig>,
    heavy_exponent: Option<f64>,
    bad_node_factor: Option<f64>,
    words_per_edge: Option<u64>,
    max_arb_iterations: Option<usize>,
    max_list_iterations: Option<usize>,
    arboricity_slack: Option<f64>,
    termination_exponent: Option<f64>,
    experiment_scale: bool,
    resilience: Option<Resilience>,
}

impl EngineBuilder {
    /// Creates a builder with nothing set (algorithm defaults to `general`).
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Sets the clique size `p ≥ 3` (required).
    pub fn p(mut self, p: usize) -> Self {
        self.p = Some(p);
        self
    }

    /// Selects a registered algorithm by name (see [`names`]); defaults to
    /// [`names::GENERAL`].
    pub fn algorithm(mut self, name: impl Into<String>) -> Self {
        self.algorithm = Some(name.into());
        self
    }

    /// Plugs in an external [`ListingAlgorithm`] implementation instead of a
    /// registered one.
    pub fn custom(mut self, algorithm: Box<dyn ListingAlgorithm>) -> Self {
        self.custom = Some(algorithm);
        self
    }

    /// Seed for all randomised choices (partitions, tie-breaking).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Thread parallelism of the local enumeration (defaults to
    /// [`Parallelism::Off`]). Never changes a run's output: algorithms with
    /// sharded local enumeration produce byte-identical listings at every
    /// setting, and CONGEST-simulated algorithms ignore the knob and record
    /// a sequential-fallback reason in the [`RunReport`]. `Threads(0)` is
    /// rejected by [`EngineBuilder::build`].
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Selects the enumeration kernel of every local enumeration (defaults to
    /// [`KernelStrategy::Auto`], which resolves per graph by degeneracy).
    /// Like [`EngineBuilder::parallelism`], this knob never changes a run's
    /// output — both kernels are held to byte-identical listings — only its
    /// wall-clock profile.
    pub fn kernel(mut self, kernel: KernelStrategy) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Selects the in-cluster exchange accounting (the dense mode is the
    /// ablation of experiment E9).
    pub fn exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.exchange_mode = Some(mode);
        self
    }

    /// Overrides the round-charging policy for black-box primitives.
    pub fn charge_policy(mut self, policy: ChargePolicy) -> Self {
        self.charge_policy = Some(policy);
        self
    }

    /// Overrides the expander-decomposition parameters.
    pub fn decomposition(mut self, config: DecompositionConfig) -> Self {
        self.decomposition = Some(config);
        self
    }

    /// Overrides the heavy-node threshold exponent `γ` (`0 < γ < 1`).
    pub fn heavy_exponent(mut self, gamma: f64) -> Self {
        self.heavy_exponent = Some(gamma);
        self
    }

    /// Overrides the bad-node threshold constant (Section 2.4.1).
    pub fn bad_node_factor(mut self, factor: f64) -> Self {
        self.bad_node_factor = Some(factor);
        self
    }

    /// Overrides the number of words one edge occupies on the wire.
    pub fn words_per_edge(mut self, words: u64) -> Self {
        self.words_per_edge = Some(words);
        self
    }

    /// Overrides the safety cap on ARB-LIST iterations per LIST call.
    ///
    /// Note: the `eden-k4` baseline is *defined* as a (near-)single-pass
    /// algorithm and its [`ListingAlgorithm::prepare`] clamps this cap to at
    /// most 4 regardless of the override.
    pub fn max_arb_iterations(mut self, cap: usize) -> Self {
        self.max_arb_iterations = Some(cap);
        self
    }

    /// Overrides the safety cap on LIST invocations made by the driver.
    pub fn max_list_iterations(mut self, cap: usize) -> Self {
        self.max_list_iterations = Some(cap);
        self
    }

    /// Replaces the paper's `2 log n` arboricity slack with a constant.
    pub fn arboricity_slack(mut self, slack: f64) -> Self {
        self.arboricity_slack = Some(slack);
        self
    }

    /// Overrides the driver's termination exponent.
    pub fn termination_exponent(mut self, exponent: f64) -> Self {
        self.termination_exponent = Some(exponent);
        self
    }

    /// Applies the simulation-scale tuning of
    /// [`ListingConfig::for_experiments`] (constant slack, bare charge
    /// policy); explicit builder overrides still win.
    pub fn experiment_scale(mut self) -> Self {
        self.experiment_scale = true;
        self
    }

    /// Sets the fault and degradation envelope of every run (defaults to
    /// [`Resilience::fault_free`], which never alters behaviour). A
    /// `max_rounds` of `Some(0)` is rejected by [`EngineBuilder::build`].
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Validates the configuration and constructs the [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the clique size is missing, too small
    /// or unsupported by the selected algorithm, when the algorithm name is
    /// unknown, or when any numeric parameter violates its precondition.
    pub fn build(self) -> Result<Engine, ConfigError> {
        let handle = match (self.custom, self.algorithm) {
            (Some(_), Some(name)) => {
                return Err(ConfigError::ConflictingAlgorithmSelection { name });
            }
            (Some(custom), None) => AlgorithmHandle::Custom(custom),
            (None, Some(name)) => match algorithm_named(&name) {
                Some(builtin) => AlgorithmHandle::Builtin(builtin),
                None => return Err(ConfigError::UnknownAlgorithm { name }),
            },
            (None, None) => AlgorithmHandle::Builtin(&GeneralListing),
        };
        let info = handle.get().info();

        let p = self.p.ok_or(ConfigError::MissingCliqueSize)?;
        let mut config = ListingConfig::try_for_p(p)?;
        if !info.supports_p(p) {
            return Err(ConfigError::UnsupportedCliqueSize {
                algorithm: info.name,
                p,
                min: info.min_p,
                max: info.max_p,
            });
        }

        if self.experiment_scale {
            config = config.for_experiments();
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(parallelism) = self.parallelism {
            config.parallelism = parallelism;
        }
        if let Some(kernel) = self.kernel {
            config.kernel = kernel;
        }
        if let Some(mode) = self.exchange_mode {
            config.exchange_mode = mode;
        }
        if let Some(policy) = self.charge_policy {
            config.charge_policy = policy;
        }
        if let Some(decomposition) = self.decomposition {
            config.decomposition = decomposition;
        }
        if let Some(gamma) = self.heavy_exponent {
            config.heavy_exponent = gamma;
        }
        if let Some(factor) = self.bad_node_factor {
            config.bad_node_factor = factor;
        }
        if let Some(words) = self.words_per_edge {
            config.words_per_edge = words;
        }
        if let Some(cap) = self.max_arb_iterations {
            config.max_arb_iterations = cap;
        }
        if let Some(cap) = self.max_list_iterations {
            config.max_list_iterations = cap;
        }
        if let Some(slack) = self.arboricity_slack {
            config.arboricity_slack = Some(slack);
        }
        if let Some(exponent) = self.termination_exponent {
            config.termination_exponent_override = Some(exponent);
        }

        let config = handle.get().prepare(config);
        config.validate()?;
        let resilience = self.resilience.unwrap_or_default();
        resilience.validate()?;
        Ok(Engine {
            algorithm: handle,
            config,
            resilience,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{self, Rounds};
    use crate::verify::verify_cliques;
    use graphcore::gen;

    #[test]
    fn registry_exposes_all_builtins() {
        let names: Vec<&str> = algorithms().map(|a| a.info().name).collect();
        assert_eq!(
            names,
            vec![
                names::GENERAL,
                names::FAST_K4,
                names::CONGESTED_CLIQUE,
                names::NAIVE_BROADCAST,
                names::EDEN_K4
            ]
        );
        assert!(algorithm_named("general").is_some());
        assert!(algorithm_named("nonsense").is_none());
    }

    #[test]
    fn capability_ranges() {
        assert!(algorithm_named("general").unwrap().info().supports_p(17));
        let fast = algorithm_named("fast-k4").unwrap().info();
        assert!(fast.supports_p(4));
        assert!(!fast.supports_p(5));
        assert!(!fast.supports_p(3));
    }

    #[test]
    fn builder_rejects_missing_p() {
        assert_eq!(
            Engine::builder().build().unwrap_err(),
            ConfigError::MissingCliqueSize
        );
    }

    #[test]
    fn builder_rejects_small_p() {
        assert!(matches!(
            Engine::builder().p(2).build(),
            Err(ConfigError::CliqueSizeTooSmall { p: 2 })
        ));
    }

    #[test]
    fn builder_rejects_unknown_algorithm() {
        assert!(matches!(
            Engine::builder().p(4).algorithm("quantum").build(),
            Err(ConfigError::UnknownAlgorithm { .. })
        ));
    }

    #[test]
    fn builder_rejects_name_plus_custom_conflict() {
        struct Noop;
        impl ListingAlgorithm for Noop {
            fn info(&self) -> AlgorithmInfo {
                AlgorithmInfo {
                    name: "noop",
                    model: Model::Congest,
                    min_p: 3,
                    max_p: None,
                    parallel: ParallelSupport::Sequential("test stub"),
                    summary: "test stub",
                }
            }
            fn run(
                &self,
                _graph: &Graph,
                _config: &ListingConfig,
                _sink: &mut dyn CliqueSink,
            ) -> RunReport {
                RunReport::default()
            }
        }
        let err = Engine::builder()
            .p(4)
            .algorithm("fast-k4")
            .custom(Box::new(Noop))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::ConflictingAlgorithmSelection { ref name } if name == "fast-k4"
        ));
    }

    #[test]
    fn builder_rejects_unsupported_p() {
        assert!(matches!(
            Engine::builder().p(5).algorithm("fast-k4").build(),
            Err(ConfigError::UnsupportedCliqueSize {
                algorithm: "fast-k4",
                p: 5,
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_bad_numeric_parameters() {
        assert!(matches!(
            Engine::builder().p(4).max_arb_iterations(0).build(),
            Err(ConfigError::ZeroIterationCap { .. })
        ));
        assert!(matches!(
            Engine::builder().p(4).heavy_exponent(2.0).build(),
            Err(ConfigError::BadExponent { .. })
        ));
        assert!(matches!(
            Engine::builder().p(4).arboricity_slack(-1.0).build(),
            Err(ConfigError::BadFactor { .. })
        ));
        assert!(matches!(
            Engine::builder().p(4).words_per_edge(0).build(),
            Err(ConfigError::ZeroWordsPerEdge)
        ));
    }

    #[test]
    fn prepare_pins_the_variant_and_overrides_apply() {
        let engine = Engine::builder()
            .p(4)
            .algorithm("fast-k4")
            .seed(9)
            .experiment_scale()
            .build()
            .unwrap();
        assert_eq!(engine.config().variant, Variant::FastK4);
        assert_eq!(engine.config().seed, 9);
        assert_eq!(engine.config().arboricity_slack, Some(1.0));
        let eden = Engine::builder().p(4).algorithm("eden-k4").build().unwrap();
        assert_eq!(eden.config().exchange_mode, ExchangeMode::DenseAssumption);
        assert!(eden.config().max_arb_iterations <= 4);
    }

    #[test]
    fn every_builtin_lists_exactly_on_a_small_graph() {
        let graph = gen::erdos_renyi(40, 0.35, 3);
        for algorithm in algorithms() {
            let info = algorithm.info();
            if !info.supports_p(4) {
                continue;
            }
            let engine = Engine::builder()
                .p(4)
                .algorithm(info.name)
                .seed(1)
                .build()
                .unwrap();
            let (report, cliques) = engine.collect(&graph);
            verify_cliques(&graph, 4, &cliques).unwrap_or_else(|e| panic!("{}: {e}", info.name));
            assert_eq!(report.algorithm, info.name);
            assert_eq!(report.sink.emitted as usize, cliques.len());
            assert_eq!(report.model, Some(info.model));
        }
    }

    #[test]
    fn count_and_collect_agree() {
        let graph = gen::erdos_renyi(50, 0.3, 11);
        let engine = Engine::builder().p(4).seed(5).build().unwrap();
        let (_, cliques) = engine.collect(&graph);
        let (report, count) = engine.count(&graph);
        assert_eq!(count as usize, cliques.len());
        assert_eq!(report.sink.emitted, count);
    }

    #[test]
    fn congested_clique_report_carries_stats() {
        let graph = gen::erdos_renyi(60, 0.3, 7);
        let engine = Engine::builder()
            .p(4)
            .algorithm("congested-clique")
            .build()
            .unwrap();
        let (report, cliques) = engine.collect(&graph);
        verify_cliques(&graph, 4, &cliques).expect("exact listing");
        let stats = report.congested_clique.expect("stats present");
        assert!(stats.predicted_rounds > 0.0);
        assert_eq!(report.model, Some(Model::CongestedClique));
    }

    #[test]
    fn custom_algorithms_plug_in() {
        /// A toy algorithm that emits a single fixed "clique".
        struct Fixed;
        impl ListingAlgorithm for Fixed {
            fn info(&self) -> AlgorithmInfo {
                AlgorithmInfo {
                    name: "fixed",
                    model: Model::Congest,
                    min_p: 3,
                    max_p: None,
                    parallel: ParallelSupport::Sequential("test stub"),
                    summary: "test stub",
                }
            }
            fn run(
                &self,
                _graph: &Graph,
                _config: &ListingConfig,
                sink: &mut dyn CliqueSink,
            ) -> RunReport {
                sink.accept(&[0, 1, 2]);
                let mut rounds = Rounds::new();
                rounds.add(result::phase::FINAL_BROADCAST, 1);
                RunReport {
                    rounds,
                    ..RunReport::default()
                }
            }
        }
        let engine = Engine::builder()
            .p(3)
            .custom(Box::new(Fixed))
            .build()
            .unwrap();
        let (report, cliques) = engine.collect(&Graph::new(3));
        assert_eq!(report.algorithm, "fixed");
        assert_eq!(report.sink.emitted, 1);
        assert_eq!(cliques.len(), 1);
        assert_eq!(report.total_rounds(), 1);
    }

    #[test]
    fn capability_metadata_marks_every_builtin_sharded() {
        // Since the cluster fan-out landed, every built-in path shards: the
        // dense local enumerations over root shards, the CONGEST pipelines
        // over cluster tasks. Capability stays an algorithm fact.
        for algorithm in algorithms() {
            let info = algorithm.info();
            assert_eq!(info.parallel, ParallelSupport::Sharded, "{}", info.name);
        }
    }

    #[test]
    fn threads_used_records_actual_fanout_not_the_grant() {
        // A tiny graph cannot feed 8 workers: the shard plan has at most one
        // shard per root vertex (and the CONGEST pipelines at most one task
        // per cluster), so the recorded fan-out must stay strictly below the
        // grant for EVERY algorithm (that is the point of `threads_used` —
        // the grant is an upper bound, not what happened).
        let tiny = gen::complete_graph(5);
        for algorithm in algorithms() {
            let info = algorithm.info();
            if !info.supports_p(4) {
                continue;
            }
            let engine = Engine::builder()
                .p(4)
                .algorithm(info.name)
                .seed(3)
                .parallelism(Parallelism::Threads(8))
                .build()
                .unwrap();
            let (report, count) = engine.count(&tiny);
            assert_eq!(count, 5, "{}", info.name);
            assert_eq!(report.parallelism.threads_granted, 8, "{}", info.name);
            assert!(report.parallelism.threads_used >= 1, "{}", info.name);
            assert!(
                report.parallelism.threads_used < 8,
                "{}: 5 roots cannot use an 8-thread grant (used {})",
                info.name,
                report.parallelism.threads_used
            );
            // Parallelism::Off pins the recorded fan-out to 1.
            let off = Engine::builder()
                .p(4)
                .algorithm(info.name)
                .seed(3)
                .build()
                .unwrap();
            let (report, _) = off.count(&tiny);
            assert_eq!(report.parallelism.threads_used, 1, "{}", info.name);
        }
    }

    #[test]
    fn builder_rejects_zero_threads() {
        assert_eq!(
            Engine::builder()
                .p(4)
                .parallelism(Parallelism::Threads(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroThreads
        );
        let engine = Engine::builder()
            .p(4)
            .parallelism(Parallelism::Threads(2))
            .build()
            .unwrap();
        assert_eq!(engine.config().parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn congest_paths_report_sharded_support_consistent_with_the_build() {
        let graph = gen::erdos_renyi(30, 0.3, 2);
        let engine = Engine::builder()
            .p(4)
            .algorithm("general")
            .parallelism(Parallelism::Threads(4))
            .build()
            .unwrap();
        let (report, _) = engine.count(&graph);
        assert!(report.parallelism.supported);
        assert_eq!(report.parallelism.sequential_reason, None);
        assert_eq!(report.parallelism.threads_granted, 4);
        // Capability is an algorithm fact: the same engine without any
        // parallelism request serialises identically.
        let sequential = Engine::builder().p(4).algorithm("general").build().unwrap();
        let (sequential_report, _) = sequential.count(&graph);
        assert_eq!(
            sequential_report.parallelism.sequential_reason,
            report.parallelism.sequential_reason
        );
        assert_eq!(sequential_report.to_json(), report.to_json());
    }

    #[test]
    fn sharded_paths_report_threads_consistent_with_the_build() {
        let graph = gen::erdos_renyi(30, 0.3, 2);
        let engine = Engine::builder()
            .p(4)
            .algorithm("congested-clique")
            .parallelism(Parallelism::Threads(3))
            .build()
            .unwrap();
        let (report, _) = engine.count(&graph);
        assert!(report.parallelism.supported);
        assert_eq!(report.parallelism.sequential_reason, None);
        assert_eq!(report.parallelism.threads_granted, 3);
        // A 30-vertex dense graph yields well over 3 shards, so the grant is
        // fully used — and `threads_used` never exceeds the grant.
        assert_eq!(report.parallelism.threads_used, 3);
    }

    #[test]
    fn saturation_is_reported() {
        use crate::sink::FirstK;
        let graph = gen::complete_graph(10);
        let engine = Engine::builder().p(4).build().unwrap();
        let mut sink = FirstK::new(3);
        let report = engine.run(&graph, &mut sink);
        assert_eq!(sink.cliques.len(), 3);
        assert!(report.sink.saturated);
        assert_eq!(report.sink.emitted, 3);
        // Deterministic prefix: a second run yields the same first cliques.
        let mut again = FirstK::new(3);
        engine.run(&graph, &mut again);
        assert_eq!(sink.cliques, again.cliques);
    }
}
