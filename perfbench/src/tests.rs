//! The benchmark's own smoke test: every workload at toy size, timed and
//! traced, must pass its checks and print every declared metric.

use super::*;

fn toy(trace: bool) -> Ctx {
    Ctx {
        seed: 11,
        seconds: 0.2,
        threads: 2,
        trace,
        toy: true,
    }
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for trace in [false, true] {
        for workload in WORKLOADS {
            let (out, _) = run(workload, &toy(trace)).expect("toy set-up succeeds");
            assert!(
                out.outcomes.attempted > 0,
                "{workload}: nothing was checked"
            );
            assert_eq!(
                out.outcomes.failed, 0,
                "{workload} (trace {trace}): {:?}",
                out.outcomes.messages
            );
            for name in expected_metrics(trace) {
                let m = out.metrics.get(name);
                assert!(
                    m.is_some_and(|m| m.value.is_finite()),
                    "{workload}: {name} missing"
                );
            }
            if !trace {
                assert_eq!(out.metrics["ok_frac"].value, 1.0);
            }
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
    let declared = text.matches("\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
    );
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    assert!(parse_args(&args(
        "--workload serve-read --seed 1 --seconds 2 --trace 0"
    ))
    .is_ok());
    assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
    assert!(parse_args(&args(
        "--workload serve-read --seed 1 --seconds 2 --trace 2"
    ))
    .is_err());
    assert!(parse_args(&args(
        "--workload serve-read --seed x --seconds 2 --trace 0"
    ))
    .is_err());
    assert!(parse_args(&args("--workload serve-read --seed 1 --trace 0")).is_err());
    assert!(parse_args(&args(
        "--workload serve-read --seed 1 --seconds 2 --trace 0 --x 1"
    ))
    .is_err());
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let mut m = Metrics::new();
    m.insert(
        "setup_s".into(),
        metrics::Metric {
            value: 0.5,
            samples: 7,
        },
    );
    let line = result_line(true, 3, 0, &m);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}
