//! The unified run report of the [`Engine`](crate::Engine) API.
//!
//! [`RunReport`] subsumes the pre-Engine `ListingResult` (rounds breakdown +
//! diagnostics) and `CongestedCliqueReport` (per-node send/receive loads and
//! the Theorem 1.3 prediction): one report type for every algorithm, with the
//! listed cliques streamed to a [`CliqueSink`](crate::CliqueSink) instead of
//! being materialised inside the report.
//!
//! The report derives the workspace `serde` markers and additionally carries
//! a hand-rolled [`RunReport::to_json`]: the vendored `serde` stand-in has no
//! data format (see `DESIGN.md` §5), so the JSON emission used by the
//! experiments harness (`experiments --json`) is implemented directly here
//! and switches to `serde_json` transparently once a real backend lands.

use crate::result::{Diagnostics, Rounds};
use graphcore::{KernelChoice, KernelStrategy};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The communication model an algorithm runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Model {
    /// The CONGEST model: the input graph is the communication graph,
    /// `O(log n)` bits per edge per round.
    Congest,
    /// The CONGESTED CLIQUE model: all-to-all communication, `O(log n)` bits
    /// per ordered pair per round.
    CongestedClique,
}

impl Model {
    /// Stable lower-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Model::Congest => "congest",
            Model::CongestedClique => "congested-clique",
        }
    }
}

/// What happened at the sink boundary during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkSummary {
    /// Number of distinct cliques emitted to the sink.
    pub emitted: u64,
    /// Whether the sink reported saturation before the enumeration finished
    /// (e.g. a `FirstK` sink that filled up).
    pub saturated: bool,
}

/// How a run's local enumeration was executed with respect to the
/// [`Parallelism`](crate::Parallelism) knob.
///
/// `supported` and `sequential_reason` are a pure function of the algorithm
/// (never of the requested thread count or the host), so the JSON rendered
/// by [`RunReport::to_json`] is byte-identical across every parallelism
/// setting — the report artifact stays diffable.
/// `threads_granted` and `threads_used` are the host-dependent execution
/// details and are deliberately **not** serialised, for the same reason
/// timings are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismSummary {
    /// Whether this algorithm can shard its local enumeration.
    pub supported: bool,
    /// Why runs are pinned to sequential execution (`None` when sharding is
    /// available): the algorithm's capability reason.
    pub sequential_reason: Option<&'static str>,
    /// Worker threads the engine granted to the local enumeration (1 =
    /// sequential). An upper bound on what the enumeration actually fans out
    /// to: degenerate inputs (single-shard plans, saturated sinks) still run
    /// sequentially under a grant, and no fan-out exceeds the host's cores.
    /// Execution detail, excluded from [`RunReport::to_json`].
    pub threads_granted: usize,
    /// The largest fan-out any stage of the run actually reached, the
    /// calling thread included (1 = every stage ran sequentially). Unlike
    /// `threads_granted` this is never an over-statement: a grant of 8
    /// threads on a single-shard plan or a 2-core host records at most 1 or
    /// 2 here, so scaling reports can attribute speedups (or their absence)
    /// to real fan-out rather than to the requested setting.
    /// Execution detail, excluded from [`RunReport::to_json`].
    pub threads_used: usize,
}

impl Default for ParallelismSummary {
    fn default() -> Self {
        ParallelismSummary {
            supported: false,
            sequential_reason: None,
            threads_granted: 1,
            threads_used: 1,
        }
    }
}

/// How a run's local enumerations selected their kernel with respect to the
/// [`KernelStrategy`] knob.
///
/// Like the thread counts of [`ParallelismSummary`], the whole summary is an
/// execution detail deliberately excluded from [`RunReport::to_json`]: both
/// kernels emit byte-identical listings (the kernel differential battery
/// holds them to it), so two runs differing only in their kernel setting
/// must produce byte-identical report artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSummary {
    /// The strategy the run was configured with.
    pub requested: KernelStrategy,
    /// What the strategy resolves to on the *input* graph (a pure function
    /// of the graph's degeneracy and the strategy — host-independent).
    /// Derived enumerations (cluster subgraphs, aggregate graphs) resolve
    /// per their own subgraph and may differ; this field records the
    /// top-level resolution so scaling reports can attribute wall-clock
    /// differences to the kernel that actually ran on the dominant input.
    pub resolved: KernelChoice,
}

impl Default for KernelSummary {
    fn default() -> Self {
        KernelSummary {
            requested: KernelStrategy::Auto,
            resolved: KernelChoice::Recursive,
        }
    }
}

/// CONGESTED CLIQUE load statistics (Theorem 1.3), present only on runs of
/// the `congested-clique` algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CongestedCliqueStats {
    /// Maximum number of words any node sent during the edge exchange.
    pub max_send: u64,
    /// Maximum number of words any node received during the edge exchange.
    pub max_recv: u64,
    /// The theoretical prediction `1 + m / n^{1+2/p}` (no polylog factors).
    pub predicted_rounds: f64,
}

/// How a run terminated with respect to the configured
/// [`Resilience`](crate::Resilience) envelope.
///
/// Fault-free runs (the default) always finish [`RunOutcome::Complete`], and
/// `Complete` is deliberately **not** serialised by [`RunReport::to_json`] so
/// that reports from fault-free runs stay byte-identical to reports produced
/// before the fault model existed. The degraded outcomes carry a
/// deterministic, host-independent reason string: the same `(seed, fault
/// plan)` pair reproduces the same outcome byte-for-byte at any thread grant.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The run finished the full listing within its budgets.
    #[default]
    Complete,
    /// The run produced a *partial* listing (or paid extra rounds) and says
    /// why: crash-stopped nodes whose cliques are missing, message loss with
    /// the reliable transport disabled, or a round budget that was exhausted
    /// after some output had been emitted.
    Degraded(String),
    /// The run produced no usable listing: every node crash-stopped, or the
    /// round budget was exhausted before anything was emitted.
    Aborted,
}

impl RunOutcome {
    /// True when the run finished without degradation.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

/// The outcome of one [`Engine`](crate::Engine) run: identity of the
/// algorithm, measured cost, pipeline diagnostics and the sink summary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Registry name of the algorithm that produced the report.
    pub algorithm: &'static str,
    /// Communication model the rounds are measured in.
    pub model: Option<Model>,
    /// Clique size listed.
    pub p: usize,
    /// Round breakdown by pipeline phase.
    pub rounds: Rounds,
    /// Pipeline diagnostics (bad edges, loads, iteration counts).
    pub diagnostics: Diagnostics,
    /// Sink-boundary summary, filled by the engine.
    pub sink: SinkSummary,
    /// How the local enumeration was executed (sharded or sequential, and
    /// why), filled by the engine.
    pub parallelism: ParallelismSummary,
    /// Which enumeration kernel the run requested and resolved to, filled by
    /// the engine. Execution detail, excluded from [`RunReport::to_json`]
    /// (see [`KernelSummary`]).
    pub kernel: KernelSummary,
    /// CONGESTED CLIQUE load statistics, when applicable.
    pub congested_clique: Option<CongestedCliqueStats>,
    /// How the run terminated under its [`Resilience`](crate::Resilience)
    /// envelope. Defaults to [`RunOutcome::Complete`], which is omitted from
    /// [`RunReport::to_json`] to keep fault-free reports byte-stable.
    pub outcome: RunOutcome,
}

impl RunReport {
    /// Creates an empty report for one algorithm/clique-size pair.
    pub fn new(algorithm: &'static str, model: Model, p: usize) -> Self {
        RunReport {
            algorithm,
            model: Some(model),
            p,
            ..RunReport::default()
        }
    }

    /// Total measured rounds across all phases.
    pub fn total_rounds(&self) -> u64 {
        self.rounds.total()
    }

    /// Renders the report as a single JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let _ = write!(out, "\"algorithm\":{}", json_string(self.algorithm));
        let model = self
            .model
            .map_or("null".to_string(), |m| json_string(m.name()));
        let _ = write!(out, ",\"model\":{model}");
        let _ = write!(out, ",\"p\":{}", self.p);
        out.push_str(",\"rounds\":{\"total\":");
        let _ = write!(out, "{}", self.rounds.total());
        out.push_str(",\"phases\":{");
        for (i, (phase, rounds)) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{rounds}", json_string(phase));
        }
        out.push_str("}}");
        let d = &self.diagnostics;
        let _ = write!(
            out,
            ",\"diagnostics\":{{\"bad_edges\":{},\"cluster_edges\":{},\"bad_edge_fraction\":{},\
             \"max_learned_words\":{},\"decompositions\":{},\"clusters\":{},\
             \"list_iterations\":{},\"arb_iterations\":{}}}",
            d.bad_edges,
            d.cluster_edges,
            json_f64(d.bad_edge_fraction()),
            d.max_learned_words,
            d.decompositions,
            d.clusters,
            d.list_iterations,
            d.arb_iterations
        );
        let _ = write!(
            out,
            ",\"sink\":{{\"emitted\":{},\"saturated\":{}}}",
            self.sink.emitted, self.sink.saturated
        );
        // `threads_granted`/`threads_used` are deliberately omitted: like
        // wall-clock timings they are host/execution details, and including
        // them would make otherwise byte-identical runs diff by thread count.
        let reason = self
            .parallelism
            .sequential_reason
            .map_or("null".to_string(), json_string);
        let _ = write!(
            out,
            ",\"parallel\":{{\"supported\":{},\"sequential_reason\":{reason}}}",
            self.parallelism.supported
        );
        match &self.congested_clique {
            Some(cc) => {
                let _ = write!(
                    out,
                    ",\"congested_clique\":{{\"max_send\":{},\"max_recv\":{},\
                     \"predicted_rounds\":{}}}",
                    cc.max_send,
                    cc.max_recv,
                    json_f64(cc.predicted_rounds)
                );
            }
            None => out.push_str(",\"congested_clique\":null"),
        }
        // `Complete` (the only outcome a fault-free run can have) is omitted
        // entirely so that pre-fault-model report bytes are reproduced
        // exactly; only degraded runs grow the extra field.
        match &self.outcome {
            RunOutcome::Complete => {}
            RunOutcome::Degraded(reason) => {
                let _ = write!(
                    out,
                    ",\"outcome\":{{\"status\":\"degraded\",\"reason\":{}}}",
                    json_string(reason)
                );
            }
            RunOutcome::Aborted => {
                out.push_str(",\"outcome\":{\"status\":\"aborted\"}");
            }
        }
        out.push('}');
        out
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number (JSON has no NaN/infinity; those map to
/// `null`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::phase;

    #[test]
    fn json_contains_identity_rounds_and_sink() {
        let mut report = RunReport::new("general", Model::Congest, 5);
        report.rounds.add(phase::DECOMPOSITION, 10);
        report.rounds.add(phase::PART_EXCHANGE, 5);
        report.sink.emitted = 42;
        let json = report.to_json();
        assert!(json.contains("\"algorithm\":\"general\""));
        assert!(json.contains("\"model\":\"congest\""));
        assert!(json.contains("\"p\":5"));
        assert!(json.contains("\"total\":15"));
        assert!(json.contains("\"decomposition\":10"));
        assert!(json.contains("\"emitted\":42"));
        assert!(json.contains("\"congested_clique\":null"));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn congested_clique_stats_are_rendered() {
        let mut report = RunReport::new("congested-clique", Model::CongestedClique, 4);
        report.congested_clique = Some(CongestedCliqueStats {
            max_send: 7,
            max_recv: 9,
            predicted_rounds: 1.25,
        });
        let json = report.to_json();
        assert!(json.contains("\"max_send\":7"));
        assert!(json.contains("\"predicted_rounds\":1.25"));
        assert!(json.contains("\"model\":\"congested-clique\""));
    }

    #[test]
    fn parallelism_summary_is_rendered_without_thread_counts() {
        let mut report = RunReport::new("general", Model::Congest, 4);
        report.parallelism = ParallelismSummary {
            supported: false,
            sequential_reason: Some("CONGEST rounds are simulated sequentially"),
            threads_granted: 8,
            threads_used: 3,
        };
        let json = report.to_json();
        assert!(json.contains("\"parallel\":{\"supported\":false"));
        assert!(
            json.contains("\"sequential_reason\":\"CONGEST rounds are simulated sequentially\"")
        );
        // The thread counts (granted and used) are execution details and must
        // stay out of the diffable artifact.
        assert!(!json.contains("threads"));

        report.parallelism = ParallelismSummary {
            supported: true,
            sequential_reason: None,
            threads_granted: 4,
            threads_used: 4,
        };
        let json = report.to_json();
        assert!(json.contains("\"parallel\":{\"supported\":true,\"sequential_reason\":null}"));
    }

    #[test]
    fn kernel_summary_is_rendered_nowhere_in_json() {
        // Same contract as the thread counts: the kernel selection is an
        // execution detail, and reports differing only in it must serialise
        // byte-identically (the differential battery diffs these bytes).
        let mut report = RunReport::new("general", Model::Congest, 4);
        let baseline = report.to_json();
        report.kernel = KernelSummary {
            requested: KernelStrategy::Trie,
            resolved: KernelChoice::Trie,
        };
        let json = report.to_json();
        assert_eq!(json, baseline);
        assert!(!json.to_lowercase().contains("kernel"));
        assert!(!json.to_lowercase().contains("trie"));
    }

    #[test]
    fn complete_outcome_is_invisible_in_json() {
        let report = RunReport::new("general", Model::Congest, 4);
        assert!(report.outcome.is_complete());
        assert!(!report.to_json().contains("outcome"));
    }

    #[test]
    fn degraded_and_aborted_outcomes_are_rendered() {
        let mut report = RunReport::new("general", Model::Congest, 4);
        report.outcome = RunOutcome::Degraded("2 node(s) crash-stopped".to_string());
        let json = report.to_json();
        assert!(json.ends_with(
            ",\"outcome\":{\"status\":\"degraded\",\"reason\":\"2 node(s) crash-stopped\"}}"
        ));
        report.outcome = RunOutcome::Aborted;
        let json = report.to_json();
        assert!(json.ends_with(",\"outcome\":{\"status\":\"aborted\"}}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(0.5), "0.5");
    }
}
