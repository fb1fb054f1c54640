//! Configuration of the distributed listing algorithms.

use crate::error::ConfigError;
use congest::{ChargePolicy, FaultPlan};
use expander::DecompositionConfig;
use graphcore::KernelStrategy;
use serde::{Deserialize, Serialize};

/// Which algorithm variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// The general algorithm of Theorem 1.1, for every `p ≥ 4` (and `p = 3`).
    General,
    /// The faster `K_4` algorithm of Theorem 1.2 (Section 3), which avoids the
    /// `~O(n^{3/4})` term by letting `C`-light nodes list the instances whose
    /// outside edge touches a light node.
    FastK4,
}

/// How the in-cluster part-exchange load is accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExchangeMode {
    /// Loads follow the actual number of known edges between parts
    /// (the paper's sparsity-aware algorithm).
    SparsityAware,
    /// Loads assume every pair of parts is fully connected
    /// (`(n/P)²` edges per pair) — the generic, non-sparsity-aware listing
    /// used as an ablation and by the Eden-et-al-style baseline.
    DenseAssumption,
}

/// How much thread parallelism a run's local enumeration may use.
///
/// The knob controls only *wall-clock* behaviour: algorithms whose local
/// enumeration is sharded (see
/// [`ParallelSupport`](crate::engine::ParallelSupport)) produce byte-identical
/// output at every setting, and algorithms that simulate a CONGEST message
/// schedule ignore the knob and record a sequential-fallback reason in the
/// [`RunReport`](crate::RunReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Strictly sequential local enumeration (the default).
    #[default]
    Off,
    /// At most this many threads, the calling thread included, capped at
    /// the host's cores and at the work items of each fan-out
    /// (`graphcore::ordered_merge::fanout`); `Threads(0)` is rejected by
    /// [`ListingConfig::validate`].
    Threads(usize),
    /// Resolve the thread count at run time: the [`THREADS_ENV_VAR`]
    /// environment variable when set to a positive integer, otherwise the
    /// machine's available parallelism (see [`auto_threads`]).
    Auto,
}

impl Parallelism {
    /// The worker-thread count this setting resolves to (`Off` resolves
    /// to 1). Resolution is deterministic for a fixed environment; only
    /// [`Parallelism::Auto`] consults the environment at all.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Threads(n) => n,
            Parallelism::Auto => auto_threads(),
        }
    }
}

/// Environment variable consulted by [`Parallelism::Auto`]: a positive
/// integer pins the resolved thread count (the CI matrix uses this to sweep
/// thread counts without recompiling).
pub const THREADS_ENV_VAR: &str = "CLIQUELIST_THREADS";

/// The thread count [`Parallelism::Auto`] resolves to right now:
/// [`THREADS_ENV_VAR`] when it parses as a positive integer, otherwise the
/// machine's available parallelism (1 if undeterminable).
pub fn auto_threads() -> usize {
    resolve_auto_threads(std::env::var(THREADS_ENV_VAR).ok().as_deref())
}

/// Pure resolution rule behind [`auto_threads`], taking the environment
/// variable's value explicitly so tests can pin it without mutating the
/// process environment: a positive integer wins, anything else (unset,
/// empty, zero, garbage) falls back to the machine's available parallelism.
pub fn resolve_auto_threads(env_value: Option<&str>) -> usize {
    if let Some(value) = env_value {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The fault and degradation envelope of a run.
///
/// `Resilience` is deliberately **not** part of [`ListingConfig`] (which is
/// `Copy` and describes the algorithm, not its environment): it is attached
/// to the [`Engine`](crate::Engine) through
/// [`EngineBuilder::resilience`](crate::EngineBuilder::resilience) and
/// describes the adversary the run must survive — a deterministic
/// [`FaultPlan`] plus an optional round budget — and whether the reliable
/// transport masks message loss.
///
/// The default envelope is fault-free, unbounded and reliable, and produces
/// reports byte-identical to runs with no envelope at all; see
/// [`RunOutcome`](crate::RunOutcome) for how deviations are surfaced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Resilience {
    /// The deterministic fault schedule applied to the run. The same
    /// `(seed, plan)` pair replays byte-identically at any thread grant.
    pub fault_plan: FaultPlan,
    /// Whether message-level simulations wrap their sends in the
    /// ack/retransmit transport ([`congest::reliable`]). When `false`, any
    /// plan with a positive drop probability degrades the run instead of
    /// masking the loss.
    pub reliable_transport: bool,
    /// Hard budget on total rounds (simulated + charged). `None` is
    /// unbounded; `Some(0)` is rejected by [`Resilience::validate`].
    pub max_rounds: Option<u64>,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            fault_plan: FaultPlan::fault_free(),
            reliable_transport: true,
            max_rounds: None,
        }
    }
}

impl Resilience {
    /// An envelope that injects nothing and bounds nothing — runs under it
    /// are indistinguishable from runs with no envelope at all.
    pub fn fault_free() -> Self {
        Resilience::default()
    }

    /// An envelope carrying a fault plan with default transport and budget.
    pub fn with_plan(fault_plan: FaultPlan) -> Self {
        Resilience {
            fault_plan,
            ..Resilience::default()
        }
    }

    /// True when the envelope can never alter a run's behaviour.
    pub fn is_inert(&self) -> bool {
        self.fault_plan.is_fault_free() && self.max_rounds.is_none()
    }

    /// Checks the envelope's preconditions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroRoundBudget`] when `max_rounds` is
    /// `Some(0)`. The fault plan itself is valid by construction
    /// ([`congest::FaultPlanBuilder`] validates on `build`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_rounds == Some(0) {
            return Err(ConfigError::ZeroRoundBudget);
        }
        Ok(())
    }
}

/// Configuration of the `K_p` listing pipeline.
///
/// Prefer constructing configurations through
/// [`Engine::builder`](crate::Engine::builder), which validates every field
/// and returns a typed [`ConfigError`] instead of panicking.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ListingConfig {
    /// Clique size `p ≥ 3`.
    pub p: usize,
    /// Algorithm variant.
    pub variant: Variant,
    /// How the in-cluster exchange load is accounted. The dense mode is the
    /// ablation of the paper's sparsity-awareness (experiment E9).
    pub exchange_mode: ExchangeMode,
    /// How rounds are charged for black-box primitives.
    pub charge_policy: ChargePolicy,
    /// Expander decomposition parameters.
    pub decomposition: DecompositionConfig,
    /// Exponent `γ` of the heavy-node threshold: an outside node is `C`-heavy
    /// when it has more than `n^γ` neighbours in the cluster. The paper uses
    /// `γ = 1/4` for the general algorithm and `γ = d − 1/3` for the fast
    /// `K_4` algorithm (where `d` is the current arboricity exponent); the
    /// latter is computed at run time, this field only covers the general
    /// case.
    pub heavy_exponent: f64,
    /// Constant factor of the bad-node threshold `100 · n^{1/2} · log n`
    /// (Section 2.4.1). Lowering it exercises the bad-edge machinery on small
    /// inputs.
    pub bad_node_factor: f64,
    /// Number of words a single edge occupies on the wire (two vertex
    /// identifiers).
    pub words_per_edge: u64,
    /// Safety cap on the number of ARB-LIST iterations inside one LIST call.
    pub max_arb_iterations: usize,
    /// Safety cap on the number of LIST invocations made by the driver.
    pub max_list_iterations: usize,
    /// Seed for all randomised choices (partitions, tie-breaking).
    pub seed: u64,
    /// Thread parallelism of the local enumeration. Only algorithms with
    /// sharded local enumeration honour it; everything else runs
    /// sequentially and says so in the [`RunReport`](crate::RunReport).
    pub parallelism: Parallelism,
    /// Enumeration kernel of the run's root-ordered clique searches (full
    /// listings and shards; the in-cluster goal-edge listing takes no kernel
    /// and runs on bitset rows). Like [`Parallelism`] this knob controls only
    /// wall-clock behaviour: both kernels emit the same cliques in the same
    /// order, byte for byte (the kernel differential battery enforces it),
    /// so reports are identical at every setting. The default
    /// [`KernelStrategy::Auto`] resolves per enumerated graph by the
    /// degeneracy heuristic in `graphcore::cliques`.
    pub kernel: KernelStrategy,
    /// The slack factor between the arboricity bound `A` and the cluster
    /// degree parameter `n^δ` (`n^δ = A / slack`). `None` uses the paper's
    /// `2 log n`; experiments at simulation scale set a small constant here,
    /// because `2 log n · n^{3/4} > n` for every `n` below ≈ 5·10⁵, which
    /// would otherwise make the driver skip straight to the final broadcast.
    pub arboricity_slack: Option<f64>,
    /// Overrides the driver's termination exponent (`max(p/(p+2), 3/4)` for
    /// the general algorithm). Experiments use this to study how the phase
    /// costs scale even at sizes where the asymptotic threshold has not yet
    /// kicked in.
    pub termination_exponent_override: Option<f64>,
}

impl ListingConfig {
    /// A configuration for listing `K_p` with the general algorithm and
    /// default parameters, or a [`ConfigError`] when `p < 3`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::CliqueSizeTooSmall`] when `p < 3`.
    pub fn try_for_p(p: usize) -> Result<Self, ConfigError> {
        let config = ListingConfig {
            p,
            variant: Variant::General,
            exchange_mode: ExchangeMode::SparsityAware,
            charge_policy: ChargePolicy::default(),
            decomposition: DecompositionConfig::default(),
            heavy_exponent: 0.25,
            bad_node_factor: 100.0,
            words_per_edge: 2,
            max_arb_iterations: 32,
            max_list_iterations: 64,
            seed: 0xC11,
            parallelism: Parallelism::Off,
            kernel: KernelStrategy::Auto,
            arboricity_slack: None,
            termination_exponent_override: None,
        };
        config.validate()?;
        Ok(config)
    }

    /// A configuration for listing `K_p` with the general algorithm and
    /// default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`; use [`ListingConfig::try_for_p`] (or the
    /// [`Engine`](crate::Engine) builder) for fallible construction.
    pub fn for_p(p: usize) -> Self {
        ListingConfig::try_for_p(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fast `K_4` configuration (Theorem 1.2).
    pub fn fast_k4() -> Self {
        ListingConfig {
            variant: Variant::FastK4,
            ..ListingConfig::for_p(4)
        }
    }

    /// Checks every field against its precondition; the builder calls this so
    /// invalid configurations surface as typed errors instead of panics or
    /// silently-skipped pipelines.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of the first violated precondition.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.p < 3 {
            return Err(ConfigError::CliqueSizeTooSmall { p: self.p });
        }
        // Theorem 1.2's light-node listing lists K_4s only.
        if self.variant == Variant::FastK4 && self.p != 4 {
            return Err(ConfigError::UnsupportedCliqueSize {
                algorithm: crate::engine::names::FAST_K4,
                p: self.p,
                min: 4,
                max: Some(4),
            });
        }
        if self.max_arb_iterations == 0 {
            return Err(ConfigError::ZeroIterationCap {
                field: "max_arb_iterations",
            });
        }
        if self.max_list_iterations == 0 {
            return Err(ConfigError::ZeroIterationCap {
                field: "max_list_iterations",
            });
        }
        if self.words_per_edge == 0 {
            return Err(ConfigError::ZeroWordsPerEdge);
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err(ConfigError::ZeroThreads);
        }
        if !(self.heavy_exponent > 0.0 && self.heavy_exponent < 1.0) {
            return Err(ConfigError::BadExponent {
                field: "heavy_exponent",
                value: self.heavy_exponent,
            });
        }
        if let Some(e) = self.termination_exponent_override {
            if !(e > 0.0 && e <= 1.0) {
                return Err(ConfigError::BadExponent {
                    field: "termination_exponent_override",
                    value: e,
                });
            }
        }
        if let Some(s) = self.arboricity_slack {
            if !(s.is_finite() && s > 0.0) {
                return Err(ConfigError::BadFactor {
                    field: "arboricity_slack",
                    value: s,
                });
            }
        }
        if !(self.bad_node_factor.is_finite() && self.bad_node_factor >= 0.0) {
            return Err(ConfigError::BadFactor {
                field: "bad_node_factor",
                value: self.bad_node_factor,
            });
        }
        Ok(())
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different charge policy.
    pub fn with_charge_policy(mut self, policy: ChargePolicy) -> Self {
        self.charge_policy = policy;
        self
    }

    /// Returns a copy with a different in-cluster exchange mode.
    pub fn with_exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.exchange_mode = mode;
        self
    }

    /// The exponent `p/(p+2)` that governs the in-cluster listing cost and the
    /// termination threshold of the driver.
    pub fn listing_exponent(&self) -> f64 {
        self.p as f64 / (self.p as f64 + 2.0)
    }

    /// The driver's termination exponent: `max(p/(p+2), 3/4)` for the general
    /// algorithm (Theorem 1.1) and `2/3` for the fast `K_4` variant
    /// (Theorem 1.2), unless overridden.
    pub fn termination_exponent(&self) -> f64 {
        if let Some(e) = self.termination_exponent_override {
            return e;
        }
        match self.variant {
            Variant::General => self.listing_exponent().max(0.75),
            Variant::FastK4 => 2.0 / 3.0,
        }
    }

    /// The slack factor between the arboricity and the cluster degree
    /// parameter: the paper's `2 log₂ n`, unless a constant override is set.
    pub fn arboricity_slack(&self, n: usize) -> f64 {
        self.arboricity_slack
            .unwrap_or_else(|| 2.0 * (n.max(2) as f64).log2())
            .max(1.0)
    }

    /// Returns a copy tuned for simulation-scale experiments: constant
    /// arboricity slack instead of `2 log n` (so the cluster pipeline is
    /// active across the whole `n` sweep rather than only beyond `n ≈ 5·10⁵`),
    /// and a bare charge policy so the measured curves are not dominated by
    /// the polylog fudge factors.
    pub fn for_experiments(mut self) -> Self {
        self.arboricity_slack = Some(1.0);
        self.charge_policy = ChargePolicy::bare();
        self
    }

    /// Worker threads the local enumeration of a run may use: 1 unless the
    /// algorithm opted into sharded enumeration (`algorithm_supports`)
    /// **and** the [`Parallelism`] knob resolves above 1. This is the single
    /// source of truth shared by the enumeration path and the
    /// [`RunReport`](crate::RunReport) summary, so the two can never
    /// disagree.
    pub fn effective_threads(&self, algorithm_supports: bool) -> usize {
        if !algorithm_supports {
            return 1;
        }
        self.parallelism.threads().max(1)
    }

    /// The bad-node threshold for an `n`-node graph: a cluster node with more
    /// `C`-light neighbours than this is bad (Section 2.4.1).
    pub fn bad_node_threshold(&self, n: usize) -> f64 {
        self.bad_node_factor * (n.max(2) as f64).sqrt() * (n.max(2) as f64).log2()
    }

    /// The heavy-node threshold for the general algorithm: `n^{1/4}` cluster
    /// neighbours.
    pub fn heavy_threshold(&self, n: usize) -> f64 {
        (n.max(1) as f64).powf(self.heavy_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponents_match_the_paper() {
        let k4 = ListingConfig::for_p(4);
        assert!((k4.listing_exponent() - 2.0 / 3.0).abs() < 1e-12);
        assert!((k4.termination_exponent() - 0.75).abs() < 1e-12);
        let k5 = ListingConfig::for_p(5);
        assert!((k5.listing_exponent() - 5.0 / 7.0).abs() < 1e-12);
        assert!((k5.termination_exponent() - 0.75).abs() < 1e-12);
        let k6 = ListingConfig::for_p(6);
        assert!((k6.termination_exponent() - 0.75).abs() < 1e-12);
        let k8 = ListingConfig::for_p(8);
        assert!((k8.termination_exponent() - 0.8).abs() < 1e-12);
        let fast = ListingConfig::fast_k4();
        assert_eq!(fast.variant, Variant::FastK4);
        assert!((fast.termination_exponent() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn thresholds_scale_with_n() {
        let cfg = ListingConfig::for_p(4);
        assert!((cfg.heavy_threshold(10_000) - 10.0).abs() < 1e-9);
        assert!(cfg.bad_node_threshold(1024) > 100.0 * 32.0 * 9.9);
        let small = ListingConfig {
            bad_node_factor: 0.01,
            ..cfg
        };
        assert!(small.bad_node_threshold(1024) < cfg.bad_node_threshold(1024));
    }

    #[test]
    fn builder_helpers() {
        let cfg = ListingConfig::for_p(5)
            .with_seed(7)
            .with_charge_policy(ChargePolicy::bare())
            .with_exchange_mode(ExchangeMode::DenseAssumption);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.charge_policy.polylog_exponent, 0);
        assert_eq!(cfg.exchange_mode, ExchangeMode::DenseAssumption);
    }

    #[test]
    fn slack_and_overrides() {
        let cfg = ListingConfig::for_p(4);
        assert!((cfg.arboricity_slack(1024) - 20.0).abs() < 1e-9);
        let exp = cfg.for_experiments();
        assert_eq!(exp.arboricity_slack(1024), 1.0);
        assert_eq!(exp.charge_policy.polylog_exponent, 0);
        let overridden = ListingConfig {
            termination_exponent_override: Some(0.4),
            ..ListingConfig::for_p(4)
        };
        assert!((overridden.termination_exponent() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_threads_rejected_and_positive_accepted() {
        let good = ListingConfig::for_p(4);
        assert_eq!(good.parallelism, Parallelism::Off);
        let zero = ListingConfig {
            parallelism: Parallelism::Threads(0),
            ..good
        };
        assert_eq!(zero.validate(), Err(ConfigError::ZeroThreads));
        for parallelism in [
            Parallelism::Off,
            Parallelism::Threads(1),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let cfg = ListingConfig {
                parallelism,
                ..good
            };
            assert!(cfg.validate().is_ok(), "{parallelism:?} must validate");
        }
    }

    #[test]
    fn auto_resolution_is_deterministic() {
        // The environment rule is pure: a positive integer pins the count...
        assert_eq!(resolve_auto_threads(Some("4")), 4);
        assert_eq!(resolve_auto_threads(Some(" 2 ")), 2);
        // ...and unset/empty/zero/garbage all fall back to the same
        // machine-derived value.
        let fallback = resolve_auto_threads(None);
        assert!(fallback >= 1);
        assert_eq!(resolve_auto_threads(Some("")), fallback);
        assert_eq!(resolve_auto_threads(Some("0")), fallback);
        assert_eq!(resolve_auto_threads(Some("many")), fallback);
        // Repeated resolution never flips within a process.
        assert_eq!(auto_threads(), auto_threads());
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn parallelism_resolves_thread_counts() {
        assert_eq!(Parallelism::Off.threads(), 1);
        assert_eq!(Parallelism::Threads(6).threads(), 6);
        assert_eq!(Parallelism::default(), Parallelism::Off);
    }

    #[test]
    fn effective_threads_requires_algorithm_support() {
        let cfg = ListingConfig {
            parallelism: Parallelism::Threads(4),
            ..ListingConfig::for_p(4)
        };
        // Algorithms that never opted in are always sequential.
        assert_eq!(cfg.effective_threads(false), 1);
        // Opted-in algorithms get the resolved count.
        assert_eq!(cfg.effective_threads(true), 4);
        let off = ListingConfig::for_p(4);
        assert_eq!(off.effective_threads(true), 1);
    }

    #[test]
    fn resilience_defaults_are_inert_and_validated() {
        let default = Resilience::default();
        assert!(default.is_inert());
        assert!(default.reliable_transport);
        assert!(default.validate().is_ok());
        assert_eq!(default, Resilience::fault_free());

        let zero_budget = Resilience {
            max_rounds: Some(0),
            ..Resilience::default()
        };
        assert_eq!(zero_budget.validate(), Err(ConfigError::ZeroRoundBudget));

        let plan = congest::FaultPlan::builder(9)
            .drop_probability(0.05)
            .build()
            .unwrap();
        let lossy = Resilience::with_plan(plan);
        assert!(!lossy.is_inert());
        assert!(lossy.validate().is_ok());

        let budgeted = Resilience {
            max_rounds: Some(100),
            ..Resilience::default()
        };
        assert!(!budgeted.is_inert());
        assert!(budgeted.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_p_rejected() {
        ListingConfig::for_p(2);
    }

    #[test]
    fn try_for_p_rejects_without_panicking() {
        assert!(matches!(
            ListingConfig::try_for_p(2),
            Err(ConfigError::CliqueSizeTooSmall { p: 2 })
        ));
        assert!(ListingConfig::try_for_p(3).is_ok());
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let good = ListingConfig::for_p(4);
        assert!(good.validate().is_ok());

        assert!(ListingConfig::fast_k4().validate().is_ok());
        for p in [3, 5, 6] {
            let fast = ListingConfig {
                variant: Variant::FastK4,
                ..ListingConfig::for_p(p)
            };
            assert_eq!(
                fast.validate(),
                Err(ConfigError::UnsupportedCliqueSize {
                    algorithm: "fast-k4",
                    p,
                    min: 4,
                    max: Some(4),
                })
            );
        }

        let zero_arb = ListingConfig {
            max_arb_iterations: 0,
            ..good
        };
        assert!(matches!(
            zero_arb.validate(),
            Err(ConfigError::ZeroIterationCap {
                field: "max_arb_iterations"
            })
        ));

        let zero_list = ListingConfig {
            max_list_iterations: 0,
            ..good
        };
        assert!(matches!(
            zero_list.validate(),
            Err(ConfigError::ZeroIterationCap {
                field: "max_list_iterations"
            })
        ));

        let zero_words = ListingConfig {
            words_per_edge: 0,
            ..good
        };
        assert_eq!(zero_words.validate(), Err(ConfigError::ZeroWordsPerEdge));

        for heavy in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = ListingConfig {
                heavy_exponent: heavy,
                ..good
            };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::BadExponent { field, .. })
                    if field == "heavy_exponent"),
                "heavy_exponent = {heavy} must be rejected"
            );
        }

        let bad_term = ListingConfig {
            termination_exponent_override: Some(1.5),
            ..good
        };
        assert!(matches!(
            bad_term.validate(),
            Err(ConfigError::BadExponent {
                field: "termination_exponent_override",
                ..
            })
        ));

        for slack in [0.0, -1.0, f64::INFINITY] {
            let cfg = ListingConfig {
                arboricity_slack: Some(slack),
                ..good
            };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::BadFactor { field, .. })
                    if field == "arboricity_slack"),
                "arboricity_slack = {slack} must be rejected"
            );
        }

        let bad_factor = ListingConfig {
            bad_node_factor: f64::NAN,
            ..good
        };
        assert!(matches!(
            bad_factor.validate(),
            Err(ConfigError::BadFactor {
                field: "bad_node_factor",
                ..
            })
        ));
    }
}
