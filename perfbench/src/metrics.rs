//! The benchmark's metric catalogue, the run context every workload gets,
//! and the conversion of raw samples into named metrics.
//!
//! `README.md` in this directory gives each metric's meaning per workload;
//! `BENCHMARK.json` at the repository root repeats the two lists below, and
//! the smoke test holds them equal.

use crate::stats::{median, quantile, Outcomes};
use crate::trace::Tracer;
use distributed_clique_listing::cliquelist::Parallelism;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// `--trace 0` and bounded in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ok/op"),
    ("op_p90_ms", "ms"),
    ("op2_p90_ms", "ms"),
    ("work_per_op", "count"),
];

/// End-to-end figures printed in the table of a timed run but left out of
/// the result line: on a shared host they move with its slow phases by more
/// than any bound the benchmark could hold them to (see `README.md`).
pub const INFO: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by every workload with
/// `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.from_edges_ms", "ms"),
    ("orientation.ordering_ms", "ms"),
    ("orientation.dag_ms", "ms"),
    ("cliques.index_build_ms", "ms"),
    ("cliques.bitsets_ms", "ms"),
    ("snapshot.build_ms", "ms"),
    ("snapshot.hash_plans_ms", "ms"),
    ("snapshot.plans_ms", "ms"),
    ("snapshot.timed_cover", "ratio"),
    ("snapshot.apply_batch_ms", "ms"),
    ("churn.apply_edge_batch_ms", "ms"),
    ("churn.edges_changed", "count"),
    ("delta.ms", "ms"),
    ("delta.created", "count"),
    ("delta.destroyed", "count"),
    ("kernel.count_p3_ms", "ms"),
    ("kernel.count_p4_ms", "ms"),
    ("kernel.vertex_ms", "ms"),
    ("kernel.edge_ms", "ms"),
    ("kernel.cliques", "count"),
    ("service.cold_ms.count", "ms"),
    ("service.cold_ms.first_k", "ms"),
    ("service.cold_ms.exists", "ms"),
    ("service.cold_ms.vertex", "ms"),
    ("service.cold_ms.edge", "ms"),
    ("service.warm_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("merge.batch_speedup_vs_off", "ratio"),
    ("merge.engine_speedup_vs_off", "ratio"),
    ("merge.threads_used", "count"),
    ("engine.orient_ms", "ms"),
    ("engine.list_once_ms", "ms"),
    ("engine.decompose_ms", "ms"),
    ("engine.knowledge_ms", "ms"),
    ("engine.list_rest_ms", "ms"),
    ("engine.final_enum_ms", "ms"),
    ("engine.replay_self_ms", "ms"),
    ("engine.stage_cover", "ratio"),
    ("rounds.decomposition", "count"),
    ("rounds.membership-broadcast", "count"),
    ("rounds.heavy-upload", "count"),
    ("rounds.light-probes", "count"),
    ("rounds.id-assignment", "count"),
    ("rounds.reshuffle", "count"),
    ("rounds.partition-broadcast", "count"),
    ("rounds.part-exchange", "count"),
    ("rounds.light-listing", "count"),
    ("rounds.final-broadcast", "count"),
    ("rounds.retransmit", "count"),
    ("engine.clusters", "count"),
    ("engine.cluster_edges", "count"),
    ("engine.bad_edges", "count"),
    ("engine.max_learned_words", "count"),
    ("engine.list_iterations", "count"),
    ("engine.arb_iterations", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Set-up samples before the measured loop. The first warms caches and is
/// not counted; `setup_s` is the 90th percentile of the others and of those
/// the loop takes every [`SETUP_INTERVAL_S`].
pub const SETUP_REPS: u64 = 3;

/// Seconds between the set-up samples spread through the measured loop, so
/// that `setup_s` sees the same machine conditions as the operations.
pub const SETUP_INTERVAL_S: f64 = 0.5;

/// Set-ups run back to back in one sample. A set-up takes milliseconds, so a
/// sample of one would be set by a single page-fault burst or preemption.
pub const SETUP_BLOCK: usize = 4;

/// Runs `once` (one set-up, returning what it built and its seconds)
/// [`SETUP_BLOCK`] times. Returns the last result and the mean seconds per
/// set-up; each earlier result is dropped before the next set-up starts.
pub fn setup_sample<T>(
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..SETUP_BLOCK {
        drop(last.take());
        let (built, secs) = once()?;
        total += secs;
        last = Some(built);
    }
    let built = last.ok_or("SETUP_BLOCK is 0")?;
    Ok((built, total / SETUP_BLOCK as f64))
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(INFO)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// How many samples it summarises (1 for a single count).
    pub samples: usize,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Stores `value` under `name` when there is one.
pub fn put(m: &mut Metrics, name: &str, value: Option<f64>, samples: usize) {
    if let Some(value) = value {
        m.insert(name.to_string(), Metric { value, samples });
    }
}

/// Stores the median of `values` under `name`.
pub fn put_median(m: &mut Metrics, name: &str, values: &[f64]) {
    put(m, name, median(values), values.len());
}

/// Stores the median per-call duration of the spans named `span`.
pub fn put_span(m: &mut Metrics, name: &str, tracer: &Tracer, span: &str) {
    put_median(m, name, &tracer.durations_ms(span));
}

/// What a workload is run with.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// The explicit thread grant handed to every library call that takes one.
    pub threads: usize,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Toy input sizes (smoke test and idle-layer probes).
    pub toy: bool,
}

impl Ctx {
    /// The pinned grant as the library's knob.
    pub fn grant(&self) -> Parallelism {
        Parallelism::Threads(self.threads)
    }

    /// Runs `step` until `seconds` have passed and at least `min_iters`
    /// iterations ran.
    pub fn run_loop(&self, min_iters: u64, mut step: impl FnMut(Tick)) {
        let start = std::time::Instant::now();
        let mut iter = 0u64;
        let mut setups = 0u64;
        while iter < min_iters || start.elapsed().as_secs_f64() < self.seconds {
            let due = start.elapsed().as_secs_f64() >= (setups + 1) as f64 * SETUP_INTERVAL_S;
            setups += u64::from(due);
            step(Tick {
                iter,
                traced: self.trace && iter.is_multiple_of(2),
                setup_due: due,
            });
            iter += 1;
        }
    }
}

/// One iteration of a measured loop.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// The iteration number, used as the request id of its spans.
    pub iter: u64,
    /// Whether to trace it. A traced run traces every other iteration, so
    /// the untraced ones in between measure the tracing overhead.
    pub traced: bool,
    /// Whether to repeat the set-up (timed into `setup_s`) before it.
    pub setup_due: bool,
}

/// Raw end-to-end samples of one run.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The workload's main operation, ms per call (untraced iterations).
    pub op_ms: Vec<f64>,
    /// The main operation in traced iterations (for the overhead only).
    pub op_ms_traced: Vec<f64>,
    /// The workload's second operation, ms per call.
    pub op2_ms: Vec<f64>,
    /// Requests served, and the seconds spent serving them.
    pub requests: f64,
    /// Seconds the library spent serving `requests`.
    pub request_secs: f64,
    /// Program-decided work per operation, over a fixed set of operations
    /// so that its mean is exact for a seed.
    pub work: Vec<f64>,
}

impl Timings {
    /// The end-to-end metrics, [`INFO`] included.
    pub fn end_to_end(&self, outcomes: &Outcomes) -> Metrics {
        let mut m = Metrics::new();
        let setups = self.setup_s.len();
        put(&mut m, "setup_s", quantile(&self.setup_s, 0.9), setups);
        put(&mut m, "peak_rss_mb", peak_rss_mb(), 1);
        let attempted = outcomes.attempted.max(1) as f64;
        put(
            &mut m,
            "ok_frac",
            Some(1.0 - outcomes.failed as f64 / attempted),
            outcomes.attempted as usize,
        );
        put(&mut m, "op_p50_ms", median(&self.op_ms), self.op_ms.len());
        put(
            &mut m,
            "op_p90_ms",
            quantile(&self.op_ms, 0.9),
            self.op_ms.len(),
        );
        put(
            &mut m,
            "op2_p50_ms",
            median(&self.op2_ms),
            self.op2_ms.len(),
        );
        put(
            &mut m,
            "op2_p90_ms",
            quantile(&self.op2_ms, 0.9),
            self.op2_ms.len(),
        );
        if self.request_secs > 0.0 {
            put(
                &mut m,
                "requests_per_s",
                Some(self.requests / self.request_secs),
                self.requests as usize,
            );
        }
        if !self.work.is_empty() {
            let mean = self.work.iter().sum::<f64>() / self.work.len() as f64;
            put(&mut m, "work_per_op", Some(mean), self.work.len());
        }
        m
    }

    /// The tracing overhead: median main-operation time in traced iterations
    /// minus that in untraced ones.
    pub fn trace_overhead(&self, m: &mut Metrics) {
        if let (Some(t), Some(u)) = (median(&self.op_ms_traced), median(&self.op_ms)) {
            let samples = self.op_ms_traced.len() + self.op_ms.len();
            put(m, "trace.overhead_ms", Some(t - u), samples);
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, where `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one workload run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Checked operations and failures.
    pub outcomes: Outcomes,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Facts about the inputs and the resolved thread grants.
    pub facts: Vec<(&'static str, String)>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}
