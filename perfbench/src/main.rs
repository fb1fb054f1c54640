//! `perfbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <serve-read|serve-churn|congest-engine> --seed <n>
//!           --seconds <s> --trace <0|1> [--git-rev <rev>] [--trace-out <file>]
//! ```
//!
//! Runs one workload in this process for `--seconds`, checks every output,
//! prints a table of metrics with units and sample counts, a `# host` line
//! (seed, cores, thread grants, git rev, input facts) and, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans are written to `--trace-out`.
//! `README.md` in this directory documents every metric.

mod engine;
mod metrics;
mod reference;
mod serve;
mod stats;
mod trace;

use metrics::{unit_of, Ctx, Metrics, RunOutput, END_TO_END, INFO, PER_LAYER};
use std::collections::btree_map::Entry;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by their command-line names.
pub const WORKLOADS: &[&str] = &["serve-read", "serve-churn", "congest-engine"];

/// Spans written to `--trace-out` at most.
const SPAN_FILE_LIMIT: usize = 200_000;

/// Seconds each idle-layer probe of a traced run measures.
const PROBE_SECONDS: f64 = 0.3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    trace_out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value.clone());
    }
    let take = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    for key in values.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "git-rev",
            "trace-out",
        ]
        .contains(&key.as_str())
        {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        git_rev: values
            .get("git-rev")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
        trace_out: values.get("trace-out").map(PathBuf::from),
    })
}

/// Runs one workload.
fn run_workload(name: &str, ctx: &Ctx) -> Result<RunOutput, String> {
    match name {
        "serve-read" => serve::serve_read(ctx),
        "serve-churn" => serve::serve_churn(ctx),
        "congest-engine" => engine::congest_engine(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs `name` with `ctx`; a traced run then also probes, at toy size, the
/// layers `name` leaves idle, so that every per-layer metric is measured.
/// Returns the output and the names of the metrics the probes supplied.
pub fn run(name: &str, ctx: &Ctx) -> Result<(RunOutput, Vec<String>), String> {
    let mut out = run_workload(name, ctx)?;
    let mut probed = Vec::new();
    if ctx.trace {
        let spans = out.tracer.spans().len();
        metrics::put(&mut out.metrics, "trace.spans", Some(spans as f64), 1);
        for other in WORKLOADS.iter().filter(|w| **w != name) {
            let probe_ctx = Ctx {
                seconds: PROBE_SECONDS,
                toy: true,
                ..ctx.clone()
            };
            let probe = run_workload(other, &probe_ctx)?;
            for (metric, value) in probe.metrics {
                if let Entry::Vacant(slot) = out.metrics.entry(metric) {
                    probed.push(format!("{}<-{other}", slot.key()));
                    slot.insert(value);
                }
            }
            out.outcomes.absorb(probe.outcomes);
        }
    }
    Ok((out, probed))
}

/// The metric names a run must print.
pub fn expected_metrics(trace: bool) -> Vec<&'static str> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    list.iter().map(|(name, _)| *name).collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                m.value,
                json_str(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: nproc,
        trace: args.trace,
        toy: false,
    };
    let (out, probed) = match run(&args.workload, &ctx) {
        Ok(result) => result,
        Err(why) => {
            eprintln!("perfbench: {} failed to set up: {why}", args.workload);
            return ExitCode::from(1);
        }
    };

    let expected = expected_metrics(args.trace);
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|name| !out.metrics.contains_key(*name))
        .collect();
    let finite = out.metrics.values().all(|m| m.value.is_finite());
    if !missing.is_empty() || !finite {
        eprintln!("perfbench: metrics missing {missing:?} or not finite");
        return ExitCode::from(1);
    }
    for why in &out.outcomes.messages {
        eprintln!("perfbench: check failed: {why}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = out.tracer.write_jsonl(path, SPAN_FILE_LIMIT) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    println!(
        "{:<32} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let mut metrics = Metrics::new();
    for name in &expected {
        let m = out.metrics[*name];
        println!(
            "{name:<32} {:>16.6} {:<8} {:>8}",
            m.value,
            unit_of(name),
            m.samples
        );
        metrics.insert(name.to_string(), m);
    }
    for (name, unit) in INFO {
        if let Some(m) = out.metrics.get(*name).filter(|_| !args.trace) {
            println!(
                "{name:<32} {:>16.6} {unit:<8} {:>8}  (not bounded)",
                m.value, m.samples
            );
        }
    }
    let mut host = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("thread_grant", format!("Threads({nproc})")),
        ("git_rev", args.git_rev.clone()),
    ];
    host.extend(out.facts.iter().map(|(k, v)| (*k, v.clone())));
    if !probed.is_empty() {
        host.push(("probed", probed.join(",")));
    }
    let fields: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("# host {{{}}}", fields.join(", "));
    let (attempted, failed) = (out.outcomes.attempted.max(1), out.outcomes.failed);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
