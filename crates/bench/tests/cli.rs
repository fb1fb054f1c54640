//! End-to-end tests of the `experiments` binary's harness subcommands,
//! driven through the real CLI (`CARGO_BIN_EXE_experiments`) on the tiny
//! `smoke` sweep so they stay fast in debug builds.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cliquelist-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the experiments binary with a pinned git revision (so cache keys are
/// stable regardless of the checkout state) inside `dir`.
fn experiments(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .env("CLIQUELIST_GIT_REV", "test-rev")
        .output()
        .expect("experiments binary runs")
}

#[test]
fn perf_resume_skips_completed_cells_and_reruns_on_rev_change() {
    let dir = temp_dir("resume");
    let cold = experiments(&dir, &["perf", "--sweep", "smoke", "--resume"]);
    assert!(cold.status.success(), "cold run: {cold:?}");
    let stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(
        stdout.contains("3 executed, 0 cached"),
        "cold run executes everything: {stdout}"
    );

    let warm = experiments(&dir, &["perf", "--sweep", "smoke", "--resume"]);
    assert!(warm.status.success());
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(
        stdout.contains("0 executed, 3 cached"),
        "warm --resume skips every completed cell: {stdout}"
    );

    // Without --resume the warm cache is ignored.
    let forced = experiments(&dir, &["perf", "--sweep", "smoke"]);
    let stdout = String::from_utf8_lossy(&forced.stdout);
    assert!(
        stdout.contains("3 executed, 0 cached"),
        "no --resume means full re-run: {stdout}"
    );

    // A different revision misses the whole cache.
    let other_rev = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["perf", "--sweep", "smoke", "--resume"])
        .current_dir(&dir)
        .env("CLIQUELIST_GIT_REV", "other-rev")
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8_lossy(&other_rev.stdout);
    assert!(
        stdout.contains("3 executed, 0 cached"),
        "revision change invalidates the cache: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_gates_regressions_with_nonzero_exit() {
    let dir = temp_dir("gate");
    // Build the committed baseline.
    let report = experiments(
        &dir,
        &["report", "--sweep", "smoke", "--out", "baseline.json"],
    );
    assert!(report.status.success(), "report: {report:?}");
    let baseline = fs::read_to_string(dir.join("baseline.json")).expect("baseline written");
    assert!(baseline.contains("\"thresholds\""));

    // An identical run passes the gate.
    let ok = experiments(
        &dir,
        &["check", "--sweep", "smoke", "--baseline", "baseline.json"],
    );
    assert!(ok.status.success(), "clean check: {ok:?}");

    // Injected deterministic regression: tamper with a baseline clique count.
    let tampered = baseline.replacen("\"cliques\":209", "\"cliques\":208", 1);
    assert_ne!(
        tampered, baseline,
        "fixture must contain the expected count"
    );
    fs::write(dir.join("tampered.json"), tampered).expect("write tampered baseline");
    let bad = experiments(
        &dir,
        &["check", "--sweep", "smoke", "--baseline", "tampered.json"],
    );
    assert_eq!(
        bad.status.code(),
        Some(1),
        "regression must exit 1: {bad:?}"
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("cliques regressed"),
        "names the metric: {stderr}"
    );

    // A missing baseline is a usage error, not a silent pass.
    let missing = experiments(
        &dir,
        &["check", "--sweep", "smoke", "--baseline", "nope.json"],
    );
    assert_eq!(missing.status.code(), Some(2), "missing baseline exits 2");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn report_is_stable_across_reruns_on_a_warm_cache() {
    let dir = temp_dir("stable");
    let first = experiments(&dir, &["report", "--sweep", "smoke", "--out", "a.json"]);
    assert!(first.status.success());
    let second = experiments(&dir, &["report", "--sweep", "smoke", "--out", "b.json"]);
    assert!(second.status.success());
    let a = fs::read_to_string(dir.join("a.json")).unwrap();
    let b = fs::read_to_string(dir.join("b.json")).unwrap();
    assert_eq!(a, b, "warm-cache consolidation is byte-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    let dir = temp_dir("help");
    for flag in ["--help", "-h"] {
        let help = experiments(&dir, &[flag]);
        assert_eq!(help.status.code(), Some(0), "{flag}: {help:?}");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(stdout.starts_with("usage: experiments"), "{flag}: {stdout}");
        assert!(
            !stdout.contains("==="),
            "{flag} ran an experiment: {stdout}"
        );
    }
    assert!(!dir.join("results").exists(), "--help created results/");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_without_running_anything() {
    let dir = temp_dir("usage");
    for args in [
        &["perf", "--sweep", "smoke", "--frobnicate"][..],
        &["e99"],
        &["perf", "--sweep", "smok"],
        &[],
        &["perf", "--sweep"],
        &["check", "--sweep", "smoke", "--time-factor", "fast"],
        &["e1", "e2"],
    ] {
        let run = experiments(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed output");
    }
    assert!(
        !dir.join("results").exists(),
        "a usage error created results/"
    );
    let _ = fs::remove_dir_all(&dir);
}
